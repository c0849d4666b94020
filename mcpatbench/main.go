// Command mcpatbench is the repository's end-to-end benchmark. It runs
// one named workload per process against the library's public entry
// points (explore, chip, trace, serve, ...), checks every output, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash mcpatbench/run.sh --workload dse-warm --seed 1 --seconds 30 --trace 0
//
// Each run does a fixed number of ops: --seconds times the workload's
// nominal op rate (opsPerSecond, measured on a 2-thread x86-64 host
// with go1.24), so a faster build finishes sooner instead of doing more
// work and growing the memo tiers further than its parent did.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/component"
	"mcpat/internal/validation"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// opsPerSecond is the nominal op rate; a run does
	// max(minOps, seconds*opsPerSecond) ops.
	opsPerSecond float64
	run          func(o options, ops int) (*outcome, error)
	traced       func(o options, ops int) (*outcome, error)
}

// minOps keeps at least ten samples beyond the p90 of every run.
const minOps = 100

func (w *workload) ops(seconds int) int {
	return max(minOps, int(math.Ceil(float64(seconds)*w.opsPerSecond)))
}

var workloads = []*workload{
	{name: "dse-cold", opsPerSecond: 800, run: runDSECold, traced: traceDSECold},
	{name: "dse-warm", opsPerSecond: 60, run: runDSEWarm, traced: traceDSEWarm},
	{name: "trace-replay", opsPerSecond: 30, run: runTraceReplay, traced: traceTraceReplay},
	{name: "evaluate-edit", opsPerSecond: 800, run: runEvaluateEdit, traced: traceEvaluateEdit},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// outcome is what a run reports.
type outcome struct {
	attempted, failed int
	problems          []string // failed checks, printed to stderr
	notes             []string // facts about the run's inputs, printed to stdout
	metrics           []metric
	digest            string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	runDeadline = time.Now().Add(150 * time.Second)
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal measured seconds (sets the fixed op count)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.Parse()
	o.trace = trace == 1
	w := findWorkload(o.workload)
	if w == nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: mcpatbench --workload {%s} --seed N --seconds N --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(),
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)

	run := w.run
	if o.trace {
		run = w.traced
	}
	out, err := run(o, w.ops(o.seconds))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcpatbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, n := range out.notes {
		fmt.Printf("note %s %s\n", o.workload, n)
	}
	if out.digest != "" {
		fmt.Printf("digest %s %s\n", o.workload, out.digest)
	}
	result := map[string]any{
		"correct":   len(out.problems) == 0 && out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
	}
	ms := map[string]any{}
	for _, m := range out.metrics {
		fmt.Printf("metric %-40s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	result["metrics"] = ms
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "mcpatbench: check failed: %s\n", p)
	}
	rb, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcpatbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(rb))
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// commit names the code under test by a hash of the module's Go
// sources and go.mod, so a plain file tree and a working tree with
// uncommitted changes are both named by what they hold.
func commit() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not name the code
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// resetMemo empties both in-memory synthesis tiers (the disk tier is
// never enabled by the benchmark).
func resetMemo() {
	array.ResetCache()
	component.ResetCache()
}

// accuracy returns the mean absolute TDP and die-area error, in percent
// of the published values, over the four validation targets.
func accuracy() (tdpErr, areaErr float64, err error) {
	ts := validation.All()
	for _, t := range ts {
		r, err := validation.Compare(t)
		if err != nil {
			return 0, 0, fmt.Errorf("validate %s: %w", t.Ref.Name, err)
		}
		tdpErr += math.Abs(r.TDPMod-r.TDPPub) / r.TDPPub * 100
		areaErr += math.Abs(r.AreaMod-r.AreaPub) / r.AreaPub * 100
	}
	n := float64(len(ts))
	return tdpErr / n, areaErr / n, nil
}

// endToEnd assembles the end-to-end metrics of a run. unit names what
// one unit of work is.
func endToEnd(setups []float64, lr loopResult, unit string, tdpErr, areaErr float64) []metric {
	n := len(lr.durs)
	units := float64(max(lr.units, 1))
	nb := len(blocks(n))
	return []metric{
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"units_per_s", blockThroughput(lr), "1/s", fmt.Sprintf("median of %d blocks; %d %ss in %.3f s timed", nb, lr.units, unit, sum(lr.durs))},
		{"op_p50_ms", blockQuantile(lr, 0.5) * 1e3, "ms", fmt.Sprintf("median of %d blocks, %d ops", nb, n)},
		{"op_p90_ms", blockQuantile(lr, 0.9) * 1e3, "ms", fmt.Sprintf("median of %d blocks, %d ops, >=%d beyond p90 per block", nb, n, n/nb/10)},
		{"alloc_bytes_per_unit", float64(lr.allocBytes) / units, "B", ""},
		{"allocs_per_unit", float64(lr.allocs) / units, "count", ""},
		{"max_rss_mb", maxRSSMB(), "MB", "peak RSS of this process"},
		{"success_rate", float64(lr.ok) / float64(lr.attempted), "fraction", fmt.Sprintf("%d/%d ops", lr.ok, lr.attempted)},
		{"tdp_err_pct", tdpErr, "%", "mean over 4 validation targets"},
		{"area_err_pct", areaErr, "%", "mean over 4 validation targets"},
	}
}
