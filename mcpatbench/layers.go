package main

// The per-layer metrics of the traced run (--trace 1) and the
// end-to-end metric each should move. BENCHMARK.json lists the same
// names (pinned by bench_test.go); the mapping lives here because that
// file's schema has no field for it, and every traced run prints it
// next to the values.

import (
	"fmt"
	"time"
)

// layerMetric is one per-layer metric.
type layerMetric struct {
	name, unit, better string
	moves              string // the end-to-end metric it should move
}

var layerMetrics = []layerMetric{
	{"explore.self_us_per_unit", "us", "lower", "dse-warm/units_per_s; ~0 share on dse-cold"},
	{"chip.new_us_per_call", "us", "lower", "dse-cold/units_per_s, evaluate-edit/op_p50_ms; 0 in trace-replay ops"},
	{"chip.new_calls_per_unit", "count", "lower", "dse-cold/units_per_s"},
	{"chip.report_us_per_call", "us", "lower", "dse-warm/units_per_s, evaluate-edit/op_p50_ms; 0 in trace-replay ops"},
	{"chip.report_calls_per_unit", "count", "lower", "dse-warm/units_per_s"},
	{"guard.check_us_per_call", "us", "lower", "dse-warm/units_per_s, evaluate-edit/op_p50_ms"},
	{"perfsim.run_us_per_call", "us", "lower", "dse-warm/units_per_s"},
	{"perfsim.calls_per_unit", "count", "lower", "dse-warm/units_per_s"},
	{"tech.fingerprint_ns_per_call", "ns", "lower", "dse-warm/units_per_s"},
	{"array.memo_hits_per_unit", "count", "higher", "dse-cold/units_per_s, evaluate-edit/op_p90_ms"},
	{"array.memo_misses_per_unit", "count", "lower", "dse-cold/units_per_s, evaluate-edit/op_p90_ms; 0 on dse-warm"},
	{"array.memo_entries", "count", "lower", "evaluate-edit/max_rss_mb"},
	{"array.opt_orgs_evaluated_per_unit", "count", "lower", "dse-cold/units_per_s, evaluate-edit/op_p90_ms; 0 on dse-warm"},
	{"array.opt_orgs_pruned_per_unit", "count", "higher", "dse-cold/units_per_s; 0 on dse-warm"},
	{"array.opt_prune_ratio", "fraction", "higher", "dse-cold/units_per_s"},
	{"component.core.hits_per_unit", "count", "higher", "dse-warm/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.core.misses_per_unit", "count", "lower", "dse-cold/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.cache.hits_per_unit", "count", "higher", "dse-warm/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.cache.misses_per_unit", "count", "lower", "dse-cold/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.fabric.hits_per_unit", "count", "higher", "dse-warm/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.fabric.misses_per_unit", "count", "lower", "dse-cold/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.mc.hits_per_unit", "count", "higher", "dse-warm/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.mc.misses_per_unit", "count", "lower", "dse-cold/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.clock.hits_per_unit", "count", "higher", "dse-warm/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.clock.misses_per_unit", "count", "lower", "dse-cold/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.shared_per_unit", "count", "higher", "dse-cold/units_per_s"},
	{"component.hit_ratio", "fraction", "higher", "dse-warm/units_per_s, evaluate-edit/op_p50_ms"},
	{"component.entries", "count", "lower", "evaluate-edit/max_rss_mb"},
	{"trace.score_us_per_interval", "us", "lower", "trace-replay/units_per_s"},
	{"trace.loop_us_per_interval", "us", "lower", "trace-replay/units_per_s"},
	{"trace.encode_us_per_record", "us", "lower", "trace-replay/units_per_s"},
	{"trace.encode_bytes_per_record", "B", "lower", "trace-replay/units_per_s"},
	{"trace.engine_build_ms", "ms", "lower", "trace-replay/setup_s"},
	{"m5compat.parse_ms_per_mb", "ms/MB", "lower", "trace-replay/setup_s"},
	{"m5compat.to_stats_us_per_dump", "us", "lower", "trace-replay/setup_s"},
	{"gem5.map_ms", "ms", "lower", "trace-replay/setup_s"},
	{"serve.handler_us_per_request", "us", "lower", "evaluate-edit/op_p50_ms, op_p90_ms"},
	{"serve.transport_us_per_request", "us", "lower", "evaluate-edit/op_p50_ms"},
	{"config.xml_to_chip_us", "us", "lower", "evaluate-edit/op_p50_ms"},
	{"power.encode_us_per_report", "us", "lower", "evaluate-edit/op_p50_ms, alloc_bytes_per_unit"},
	{"power.report_bytes", "B", "lower", "evaluate-edit/alloc_bytes_per_unit"},
	{"power.items_per_report", "count", "lower", "evaluate-edit/alloc_bytes_per_unit"},
	{"runtime.gc_cpu_fraction", "fraction", "lower", "dse-warm/units_per_s, trace-replay/units_per_s"},
	{"runtime.gc_cycles_per_unit", "count", "lower", "dse-warm/units_per_s, trace-replay/units_per_s"},
	{"composition.unattributed_pct", "%", "lower", "none: the share of untraced op time the layer sum leaves unexplained"},
}

// perLayer turns a traced run's measurements into the full per-layer
// metric list. A layer the workload never calls reads 0.
func perLayer(vals map[string]float64) []metric {
	known := map[string]bool{}
	out := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		known[m.name] = true
		out = append(out, metric{m.name, vals[m.name], m.unit, "-> " + m.moves})
	}
	for name := range vals {
		if !known[name] {
			panic(fmt.Sprintf("per-layer value %q has no layerMetrics entry", name))
		}
	}
	return out
}

// span accumulates the host time and call count of one layer boundary.
type span struct {
	d time.Duration
	n int
}

// ledger records spans by layer name. The traced run times each call
// into a layer from the benchmark's own code, so the layers need no
// instrumentation of their own.
type ledger map[string]*span

func (l ledger) add(name string, d time.Duration) {
	s := l[name]
	if s == nil {
		s = &span{}
		l[name] = s
	}
	s.d += d
	s.n++
}

// since records the span from t0 to now and returns now.
func (l ledger) since(name string, t0 time.Time) time.Time {
	now := time.Now()
	l.add(name, now.Sub(t0))
	return now
}

// perCall returns the mean seconds per call of a layer.
func (l ledger) perCall(name string) float64 {
	s := l[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return s.d.Seconds() / float64(s.n)
}

func (l ledger) calls(name string) int {
	if s := l[name]; s != nil {
		return s.n
	}
	return 0
}

func (l ledger) seconds(names ...string) float64 {
	t := 0.0
	for _, n := range names {
		if s := l[n]; s != nil {
			t += s.d.Seconds()
		}
	}
	return t
}

// tracedShare is the fraction of a run's ops the traced replay covers:
// the first 1/tracedShare of them, compared against the untraced times
// of the same ops.
const tracedShare = 4

func tracedOps(n int) int { return max(1, n/tracedShare) }

// unattributedPct is the share of the untraced op time the layer sum
// does not explain. Means, not medians: only means add up.
func unattributedPct(opMean, layerSum float64) float64 {
	if opMean == 0 {
		return 0
	}
	return (opMean - layerSum) / opMean * 100
}

// runtimeLayer records the GC metrics of an untraced section.
func runtimeLayer(vals map[string]float64, lr loopResult) {
	vals["runtime.gc_cpu_fraction"] = lr.gcCPUFraction
	vals["runtime.gc_cycles_per_unit"] = float64(lr.gcCycles) / float64(max(lr.units, 1))
}
