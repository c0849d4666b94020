package main

// Seeded input generation. Everything the program under test sees is
// built here from the --seed argument alone, so equal seeds give
// byte-identical inputs (pinned by bench_test.go). Draws are balanced
// where they can be: each run uses every value of an axis equally
// often and the seed only picks the order and the pairings, which keeps
// the per-run cost of a workload nearly the same across seeds.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"

	"mcpat/internal/chip"
	"mcpat/internal/config"
	"mcpat/internal/explore"
	"mcpat/internal/perfsim"
	"mcpat/internal/presets"
)

// Independent PCG streams per input family, so adding draws to one
// family never shifts another.
const (
	streamDSECold = iota + 1
	streamDSEWarm
	streamTrace
	streamEdit
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// balanced returns n values in which every element of vals appears
// equally often (to within one), in seeded order.
func balanced[T any](r *rand.Rand, vals []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pick returns k distinct elements of vals in ascending position order.
func pick[T any](r *rand.Rand, vals []T, k int) []T {
	idx := r.Perm(len(vals))[:k]
	slices.Sort(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}

// dseOp is one exhaustive sweep: the fixed parameters and the space.
type dseOp struct {
	Params explore.Params
	Space  explore.Space
}

var (
	dseNodes    = []float64{90, 65, 45, 32, 22}
	dseClocks   = []float64{1.5e9, 2.0e9, 2.5e9, 3.0e9}
	dseFabrics  = []chip.InterconnectKind{chip.Mesh, chip.Ring, chip.Bus, chip.Crossbar}
	dseClusters = []int{1, 2, 4}

	// Cold sweeps draw from these; the warm-up space of the dse-cold
	// set-up uses coldWarmupCores, which none of them contain, so the
	// warm-up never pre-solves an op's structures.
	coldCores       = []int{4, 8, 16, 32}
	coldL2KB        = []int{128, 256, 512, 1024}
	coldWarmupCores = []int{2, 64}

	warmCores = []int{4, 8, 12, 16, 20, 24, 28, 32}
	warmL2KB  = []int{64, 96, 128, 192, 256, 384, 512, 768, 1024}
)

// dseParams fixes every parameter a sweep does not vary, the thread
// count, memory bandwidth and perfsim workloads included, so the traced
// replay reads them from the op instead of mirroring explore's defaults.
func dseParams(nm, clockHz float64) explore.Params {
	return explore.Params{NM: nm, ClockHz: clockHz, Threads: 4, MemBW: 200e9, Workloads: perfsim.SPLASH2Like()}
}

// coldCandidates is the size of every dse-cold sweep: 2 core counts x
// 2 L2 sizes x 2 fabrics, one cluster size.
const coldCandidates = 8

// coldOps returns n dse-cold sweeps of coldCandidates points each.
func coldOps(seed uint64, n int) []dseOp {
	r := newRand(seed, streamDSECold)
	nodes := balanced(r, dseNodes, n)
	clocks := balanced(r, dseClocks, n)
	clusters := balanced(r, dseClusters, n)
	ops := make([]dseOp, n)
	for i := range ops {
		ops[i] = dseOp{
			Params: dseParams(nodes[i], clocks[i]),
			Space: explore.Space{
				Cores:        pick(r, coldCores, 2),
				L2PerCoreKB:  pick(r, coldL2KB, 2),
				Fabrics:      pick(r, dseFabrics, 2),
				ClusterSizes: []int{clusters[i]},
			},
		}
	}
	return ops
}

// coldWarmup returns the dse-cold set-up's warm-up sweep, one space per
// node, disjoint from every op in core count: 2 core counts x 4 L2
// sizes x (2 mesh cluster sizes + 3 other fabrics) = 40 points a node.
func coldWarmup(seed uint64) []dseOp {
	r := newRand(seed, streamDSECold+100)
	var ops []dseOp
	for _, nm := range dseNodes {
		ops = append(ops, dseOp{
			Params: dseParams(nm, dseClocks[r.IntN(len(dseClocks))]),
			Space: explore.Space{
				Cores:        coldWarmupCores,
				L2PerCoreKB:  coldL2KB,
				Fabrics:      dseFabrics,
				ClusterSizes: []int{1, 2},
			},
		})
	}
	return ops
}

// warmSpace returns the one fixed dse-warm space: 7 core counts x 7 L2
// sizes x (3 mesh cluster sizes + 3 other fabrics) = 294 points.
func warmSpace(seed uint64) dseOp {
	r := newRand(seed, streamDSEWarm)
	return dseOp{
		Params: dseParams(dseNodes[r.IntN(len(dseNodes))], dseClocks[r.IntN(len(dseClocks))]),
		Space: explore.Space{
			Cores:        pick(r, warmCores, 7),
			L2PerCoreKB:  pick(r, warmL2KB, 7),
			Fabrics:      dseFabrics,
			ClusterSizes: dseClusters,
		},
	}
}

// statLine is one "name value # comment" line of a gem5 stats dump.
type statLine struct {
	name, comment string
	value         float64
}

// parseFixtureDumps splits a gem5 stats.txt into its dumps, keeping
// line order (m5compat.Parse returns maps, which lose it).
func parseFixtureDumps(txt []byte) ([][]statLine, error) {
	var dumps [][]statLine
	sc := bufio.NewScanner(bytes.NewReader(txt))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "---------- Begin"):
			dumps = append(dumps, nil)
		case line == "" || strings.HasPrefix(line, "----------"):
		default:
			if len(dumps) == 0 {
				return nil, fmt.Errorf("stat line before the first dump header: %q", line)
			}
			name, rest, _ := strings.Cut(line, " ")
			rest = strings.TrimSpace(rest)
			val, comment, _ := strings.Cut(rest, " ")
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("stat %s: %v", name, err)
			}
			dumps[len(dumps)-1] = append(dumps[len(dumps)-1], statLine{name, strings.TrimSpace(comment), v})
		}
	}
	if len(dumps) == 0 {
		return nil, fmt.Errorf("no dumps in fixture")
	}
	return dumps, sc.Err()
}

// genStats writes a stats.txt of n dumps. Dump i is fixture dump
// i mod len(fixture) with every activity counter scaled by the current
// phase's factor and a small per-dump jitter; the interval length
// (sim_seconds, sim_ticks, numCycles) is kept, so activity stays within
// what the fixture's chip can sustain.
func genStats(seed uint64, fixture [][]statLine, n int) []byte {
	r := newRand(seed, streamTrace)
	var b bytes.Buffer
	phaseLeft, factor := 0, 1.0
	for i := 0; i < n; i++ {
		if phaseLeft == 0 {
			phaseLeft = 20 + r.IntN(180)
			factor = 0.3 + 0.8*r.Float64()
		}
		phaseLeft--
		b.WriteString("\n---------- Begin Simulation Statistics ----------\n")
		for _, l := range fixture[i%len(fixture)] {
			v := l.value
			if l.name != "sim_seconds" && l.name != "sim_ticks" && !strings.HasSuffix(l.name, ".numCycles") {
				v = float64(int64(v * factor * (0.95 + 0.1*r.Float64())))
			}
			fmt.Fprintf(&b, "%-45s %20s  # %s\n", l.name, strconv.FormatFloat(v, 'f', -1, 64), l.comment)
		}
		b.WriteString("\n---------- End Simulation Statistics   ----------\n")
	}
	return b.Bytes()
}

// request is one POST /v1/evaluate body.
type request struct {
	Label string // base and edit, for failure messages
	XML   bool
	Body  []byte
}

// edit changes one field of a chip configuration. Index v selects the
// value among the kind's editValues; kinds whose values are relative
// scale the base value.
type editKind struct {
	name   string
	values int
	apply  func(cfg *chip.Config, v int) bool // false: not applicable to this base
}

// Each kind's value range is wide enough that its pool holds the 2000
// fresh edits a --seconds 30 run draws from it; cores (2233) and fabric
// (2094) are the smallest.
var editKinds = []editKind{
	{"rob", 960, func(c *chip.Config, v int) bool {
		n := 40 + v
		if !c.Core.OoO || n == c.Core.ROBEntries {
			return false
		}
		c.Core.ROBEntries = n
		return true
	}},
	{"l2", 385, func(c *chip.Config, v int) bool {
		if c.L2 == nil {
			return false
		}
		l2 := *c.L2
		l2.Bytes = l2.Bytes / 256 * (128 + v) // 0.5x to 2x in 1/256 steps
		if l2.Bytes == c.L2.Bytes {
			return false
		}
		c.L2 = &l2
		return true
	}},
	{"clock", 1000, func(c *chip.Config, v int) bool {
		if v == 500 {
			return false
		}
		c.ClockHz *= 0.75 + float64(v)/2000 // 0.75x to 1.25x
		return true
	}},
	{"node", 400, func(c *chip.Config, v int) bool {
		nm := c.NM * (0.8 + float64(v)/1000) // 0.8x to 1.2x, within the roadmap
		if v == 200 || nm < 22 || nm > 180 {
			return false
		}
		c.NM = nm
		return true
	}},
	{"cores", 320, func(c *chip.Config, v int) bool {
		n := 1 + v
		if n == c.NumCores || c.NoC.Kind == chip.Mesh {
			return false
		}
		c.NumCores = n
		if c.L2 != nil && c.L2.Sharers > 0 {
			l2 := *c.L2
			l2.Sharers = n
			c.L2 = &l2
		}
		return true
	}},
	{"fabric", 3 * 100, func(c *chip.Config, v int) bool {
		k := []chip.InterconnectKind{chip.Bus, chip.Ring, chip.Crossbar}[v%3]
		flit := 32 + 8*(v/3)
		if c.NoC.Kind == chip.Mesh || (c.NoC.Kind == k && c.NoC.FlitBits == flit) {
			return false
		}
		c.NoC = chip.NoCSpec{Kind: k, FlitBits: flit}
		return true
	}},
}

// editBases are the preset and validation-target chips requests edit.
func editBases() []presets.Preset { return presets.All() }

// edit is one (base, kind, value) triple of the fresh-edit pool.
type edit struct{ base, kind, value int }

// editPool lists every applicable edit, in a fixed order.
func editPool() []edit {
	var pool []edit
	for bi, b := range editBases() {
		for ki, k := range editKinds {
			for v := 0; v < k.values; v++ {
				cfg := b.Config
				if k.apply(&cfg, v) {
					pool = append(pool, edit{bi, ki, v})
				}
			}
		}
	}
	return pool
}

// buildRequest encodes the edited (or, for kind -1, unedited) base as a
// JSON or McPAT-XML request body.
func buildRequest(e edit, asXML bool) (request, error) {
	b := editBases()[e.base]
	cfg := b.Config
	label := b.Name
	if e.kind >= 0 {
		k := editKinds[e.kind]
		k.apply(&cfg, e.value)
		label = fmt.Sprintf("%s/%s#%d", b.Name, k.name, e.value)
	}
	if asXML {
		var buf bytes.Buffer
		if err := config.FromChipConfig(cfg).Write(&buf); err != nil {
			return request{}, fmt.Errorf("%s: write XML: %w", label, err)
		}
		return request{Label: label + "/xml", XML: true, Body: buf.Bytes()}, nil
	}
	body, err := json.Marshal(struct {
		Config *chip.Config `json:"config"`
	}{&cfg})
	if err != nil {
		return request{}, fmt.Errorf("%s: encode JSON: %w", label, err)
	}
	return request{Label: label, Body: body}, nil
}

// Request mix of evaluate-edit.
const (
	hotSetSize = 64
	xmlEvery   = 4 // one request in xmlEvery is McPAT XML
)

// reqSpec is one evaluate-edit request: a hot-set entry (hot >= 0) or
// a fresh edit. Bodies are built on demand, so a run never holds every
// request body at once.
type reqSpec struct {
	hot  int
	edit edit
	xml  bool
}

func (s reqSpec) build(hot []request) (request, error) {
	if s.hot >= 0 {
		return hot[s.hot], nil
	}
	return buildRequest(s.edit, s.xml)
}

// editRequests returns the hot set (evaluated cold at set-up) and n
// requests: even positions re-send a seeded hot-set entry, odd ones are
// fresh edits. The fresh edits' kinds come from balanced, so every kind
// is an equal share of them, and each kind's base and value are drawn
// without replacement from that kind's shuffled pool, so no fresh edit
// repeats another or a hot-set entry. One fresh edit in xmlEvery is XML.
func editRequests(seed uint64, n int) (hot []request, reqs []reqSpec, err error) {
	r := newRand(seed, streamEdit)
	byKind := make([][]edit, len(editKinds))
	for _, e := range editPool() {
		byKind[e.kind] = append(byKind[e.kind], e)
	}
	for _, p := range byKind {
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	next := make([]int, len(editKinds))
	take := func(k int) (edit, error) {
		if next[k] == len(byKind[k]) {
			return edit{}, fmt.Errorf("more than the %d %s edits in the pool requested", len(byKind[k]), editKinds[k].name)
		}
		next[k]++
		return byKind[k][next[k]-1], nil
	}
	// The hot set: every base unedited, then one edit of each kind in turn.
	for i := 0; i < hotSetSize; i++ {
		e := edit{base: i, kind: -1}
		if i >= len(editBases()) {
			if e, err = take(i % len(editKinds)); err != nil {
				return nil, nil, err
			}
		}
		req, err := buildRequest(e, i%xmlEvery == 0)
		if err != nil {
			return nil, nil, err
		}
		hot = append(hot, req)
	}
	kindIdx := make([]int, len(editKinds))
	for k := range kindIdx {
		kindIdx[k] = k
	}
	kinds := balanced(r, kindIdx, n/2)
	xmlVals := make([]bool, xmlEvery)
	xmlVals[0] = true
	xml := balanced(r, xmlVals, n/2)
	reqs = make([]reqSpec, n)
	for i := range reqs {
		if i%2 == 0 {
			reqs[i] = reqSpec{hot: r.IntN(len(hot))}
			continue
		}
		e, err := take(kinds[i/2])
		if err != nil {
			return nil, nil, err
		}
		reqs[i] = reqSpec{hot: -1, edit: e, xml: xml[i/2]}
	}
	return hot, reqs, nil
}

// requestMix describes the realised evaluate-edit mix: hot re-sends,
// fresh edits per kind, and XML requests.
func requestMix(reqs []reqSpec) string {
	perKind := make([]int, len(editKinds))
	hot, xml := 0, 0
	for _, s := range reqs {
		if s.hot >= 0 {
			hot++
			continue
		}
		perKind[s.edit.kind]++
		if s.xml {
			xml++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d hot=%d", len(reqs), hot)
	for k, c := range perKind {
		fmt.Fprintf(&b, " %s=%d", editKinds[k].name, c)
	}
	fmt.Fprintf(&b, " fresh_xml=%d", xml)
	return b.String()
}
