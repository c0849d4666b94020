package main

// The trace-replay workload: a gem5 config.json plus a generated
// multi-thousand-dump stats.txt, turned into a power trace by
// trace.FromGem5 at set-up and replayed through Engine.Run per op.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"mcpat/internal/component"
	"mcpat/internal/gem5"
	"mcpat/internal/m5compat"
	"mcpat/internal/thermal"
	"mcpat/internal/trace"
)

// traceDumps is the length of the generated stats stream.
const traceDumps = 3000

// gem5Example is the worked gem5 pair the trace inputs derive from,
// relative to the repository root.
var gem5Example = filepath.Join("examples", "gem5-trace")

// traceInputs reads the example config and generates the seeded stats.
func traceInputs(seed uint64) (cfgJSON, stats []byte, err error) {
	if cfgJSON, err = os.ReadFile(filepath.Join(gem5Example, "config.json")); err != nil {
		return nil, nil, err
	}
	fixture, err := os.ReadFile(filepath.Join(gem5Example, "stats.txt"))
	if err != nil {
		return nil, nil, err
	}
	dumps, err := parseFixtureDumps(fixture)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", gem5Example, err)
	}
	return cfgJSON, genStats(seed, dumps, traceDumps), nil
}

// Replay modes an op rotates over: open loop, the thermal-headroom
// governor and a frequency-schedule governor.
const (
	modeOpen = iota
	modeHeadroom
	modeSchedule
	numModes
)

var modeNames = [numModes]string{"open", "headroom", "schedule"}

// traceModes returns the seeded mode of each op: every mode equally
// often.
func traceModes(seed uint64, n int) []int {
	return balanced(newRand(seed, streamTrace+100), []int{modeOpen, modeHeadroom, modeSchedule}, n)
}

// traceSchedule is the schedule governor's per-interval frequency
// playback: a fixed staircase.
var traceSchedule = []float64{1, 0.9, 0.8, 0.7, 0.8, 0.9}

// loopOptions arms the closed loop for a mode (nil for open loop).
func loopOptions(mode int) (*trace.LoopOptions, error) {
	var gov trace.Governor
	switch mode {
	case modeOpen:
		return nil, nil
	case modeHeadroom:
		gov = trace.ThermalHeadroom{}
	case modeSchedule:
		var err error
		if gov, err = trace.NewGovernor("schedule", 0, traceSchedule); err != nil {
			return nil, err
		}
	}
	return &trace.LoopOptions{
		Package:      thermal.PackageSpec{RthetaJA: 0.8, TimeConstS: 0.01, MaxTjK: 370},
		UseFloorplan: true,
		Governor:     gov,
	}, nil
}

// armMode enables (or disables) the closed loop for the next Run.
func armMode(eng *trace.Engine, mode int) error {
	lo, err := loopOptions(mode)
	if err != nil {
		return err
	}
	if lo == nil {
		eng.DisableLoop()
		return nil
	}
	return eng.EnableLoop(*lo)
}

// replay is one op: Engine.Run over the whole stream with every NDJSON
// record written to w.
func replay(eng *trace.Engine, ivs []trace.Interval, w io.Writer) (*trace.Trace, error) {
	h := eng.Header(len(ivs))
	if err := trace.WriteRecord(w, trace.Record{Type: "chip", Chip: &h}); err != nil {
		return nil, err
	}
	tr, err := eng.Run(context.Background(), ivs, func(s trace.Sample) error {
		return trace.WriteRecord(w, trace.Record{Type: "sample", Sample: &s})
	})
	if err != nil {
		return nil, err
	}
	return tr, trace.WriteRecord(w, trace.Record{Type: "summary", Summary: &tr.Summary})
}

// traceState is what the trace-replay set-up leaves behind.
type traceState struct {
	cfgJSON, stats []byte // the generated inputs
	eng            *trace.Engine
	ivs            []trace.Interval
	want           []float64 // open-loop energy of each interval, from Processor.Report

	setup           setupTimer
	tdpErr, areaErr float64
}

// setupTrace builds the trace from the generated inputs: mapping,
// parsing and the one synthesis, repeated preSetups times from empty
// memo tiers.
func setupTrace(o options) (*traceState, error) {
	st := &traceState{}
	var err error
	if st.cfgJSON, st.stats, err = traceInputs(o.seed); err != nil {
		return nil, err
	}
	if st.tdpErr, st.areaErr, err = accuracy(); err != nil {
		return nil, err
	}
	st.setup = setupTimer{reset: resetMemo, run: func() error {
		var err error
		st.eng, st.ivs, _, err = trace.FromGem5(bytes.NewReader(st.cfgJSON), bytes.NewReader(st.stats))
		return err
	}}
	if err := st.setup.repeat(preSetups); err != nil {
		return nil, err
	}
	if len(st.ivs) != traceDumps {
		return nil, fmt.Errorf("set-up: %d intervals from %d dumps", len(st.ivs), traceDumps)
	}
	proc := st.eng.Processor()
	for _, iv := range st.ivs {
		rep, err := proc.ReportE(iv.Stats)
		if err != nil {
			return nil, err
		}
		st.want = append(st.want, rep.Runtime()*iv.Duration)
	}
	return st, nil
}

// checkTrace compares an op's trace with the expectation for its mode:
// open-loop energy bit-identical to Processor.Report per interval; a
// closed-loop trace identical to the first trace of its mode.
func checkTrace(st *traceState, tr *trace.Trace, mode int, first *trace.Summary) error {
	if len(tr.Samples) != len(st.ivs) {
		return fmt.Errorf("%d samples for %d intervals", len(tr.Samples), len(st.ivs))
	}
	s := tr.Summary
	for _, v := range []float64{s.EnergyJ, s.AvgW, s.PeakW, s.MinW} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("non-physical summary %+v", s)
		}
	}
	if mode == modeOpen {
		for i, smp := range tr.Samples {
			if math.Float64bits(smp.EnergyJ) != math.Float64bits(st.want[i]) {
				return fmt.Errorf("interval %d: energy %x, Processor.Report gives %x", i, smp.EnergyJ, st.want[i])
			}
		}
	}
	if *first != (trace.Summary{}) && s != *first {
		return fmt.Errorf("%s replay differs from the first %s replay", modeNames[mode], modeNames[mode])
	}
	*first = s
	return nil
}

func digestSummary(d *digest, s trace.Summary) {
	d.floats(s.SimSeconds, s.EnergyJ, s.AvgW, s.PeakW, s.MinW, s.MaxTempK, s.FinalTempK, float64(s.ThrottledIntervals))
}

// loopTrace times n replays; modes[i] selects op i's loop mode. Trace
// ops must not synthesize: the section may make no subsystem memo
// lookup at all, since every chip.New makes several.
func loopTrace(st *traceState, modes []int, out *outcome) loopResult {
	var (
		firsts [numModes]trace.Summary
		armErr error
		tr     *trace.Trace
	)
	sub0 := component.Stats()
	lr := timedLoop(len(modes), loopSteps{
		prep: func(i int) { armErr = armMode(st.eng, modes[i]) },
		op: func(i int) (int, error) {
			if armErr != nil {
				return 0, fmt.Errorf("arm %s loop: %w", modeNames[modes[i]], armErr)
			}
			var err error
			if tr, err = replay(st.eng, st.ivs, io.Discard); err != nil {
				return 0, err
			}
			return len(tr.Samples), nil
		},
		check: func(i int) error {
			return checkTrace(st, tr, modes[i], &firsts[modes[i]])
		},
	}, out)
	if t := component.Stats().Delta(sub0).Total(); t.Hits+t.Misses+t.Bypassed != 0 {
		out.fail("trace ops synthesized: %d subsystem memo lookups (chip.New ran inside an op)", t.Hits+t.Misses+t.Bypassed)
	}
	d := newDigest()
	for m := range firsts {
		digestSummary(d, firsts[m])
	}
	out.digest = d.sum()
	return lr
}

func runTraceReplay(o options, n int) (*outcome, error) {
	st, err := setupTrace(o)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	lr := loopTrace(st, traceModes(o.seed, n), out)
	if err := st.setup.repeat(postSetups); err != nil {
		return nil, err
	}
	out.metrics = endToEnd(st.setup.times, lr, "interval", st.tdpErr, st.areaErr)
	return out, nil
}

// countWriter counts the bytes written to it and drops them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// traceSetupLayers times the set-up's stages one by one: config mapping,
// stats parsing, per-dump conversion and the engine's one synthesis.
func traceSetupLayers(st *traceState, vals map[string]float64) error {
	l := ledger{}
	for r := 0; r < preSetups; r++ {
		t := time.Now()
		res, err := gem5.MapBytes(st.cfgJSON)
		t = l.since("gem5.map", t)
		if err != nil {
			return err
		}
		dumps, err := m5compat.Parse(bytes.NewReader(st.stats))
		l.since("m5compat.parse", t)
		if err != nil {
			return err
		}
		for i := range dumps {
			t = time.Now()
			_, err := m5compat.ToChipStatsAt(dumps, i, res.Config.ClockHz, res.Config.NumCores)
			l.since("m5compat.to_stats", t)
			if err != nil {
				return err
			}
		}
		resetMemo()
		t = time.Now()
		_, err = trace.NewEngine(res.Config)
		l.since("trace.engine_build", t)
		if err != nil {
			return err
		}
	}
	vals["gem5.map_ms"] = l.perCall("gem5.map") * 1e3
	vals["m5compat.parse_ms_per_mb"] = l.perCall("m5compat.parse") * 1e3 / (float64(len(st.stats)) / 1e6)
	vals["m5compat.to_stats_us_per_dump"] = l.perCall("m5compat.to_stats") * 1e6
	vals["trace.engine_build_ms"] = l.perCall("trace.engine_build") * 1e3
	return nil
}

// traceOps replays the ops of modes split into score, loop and encode:
// open-loop ops call Engine.Score per interval directly, closed-loop ops
// time Engine.Run (the loop's cost is its per-interval time over the
// open-loop score), and every record is encoded on its own.
func traceOps(st *traceState, modes []int, lr loopResult, out *outcome, vals map[string]float64) {
	k := len(modes)
	l := ledger{}
	var cw countWriter
	records, closedIntervals := 0, 0
	encode := func(rec trace.Record) {
		t := time.Now()
		if err := trace.WriteRecord(&cw, rec); err != nil {
			out.fail("encode %s record: %v", rec.Type, err)
		}
		l.since("trace.encode", t)
		records++
	}
	var c counters
	before := snapshot()
	for i := 0; i < k; i++ {
		if err := armMode(st.eng, modes[i]); err != nil {
			out.fail("traced op %d: arm %s loop: %v", i, modeNames[modes[i]], err)
			continue
		}
		h := st.eng.Header(len(st.ivs))
		encode(trace.Record{Type: "chip", Chip: &h})
		var samples []trace.Sample
		if modes[i] == modeOpen {
			start := 0.0
			for j, iv := range st.ivs {
				t := time.Now()
				s, err := st.eng.Score(j, start, iv)
				l.since("trace.score", t)
				if err != nil {
					out.fail("traced op %d: %v", i, err)
					break
				}
				if math.Float64bits(s.EnergyJ) != math.Float64bits(st.want[j]) {
					out.fail("traced op %d: interval %d energy differs from Processor.Report", i, j)
				}
				start += iv.Duration
				samples = append(samples, s)
			}
		} else {
			t := time.Now()
			tr, err := st.eng.Run(context.Background(), st.ivs, nil)
			l.since("trace.loop_run", t)
			if err != nil {
				out.fail("traced op %d: %v", i, err)
				continue
			}
			samples = tr.Samples
			closedIntervals += len(tr.Samples)
		}
		for j := range samples {
			encode(trace.Record{Type: "sample", Sample: &samples[j]})
		}
		sum := trace.Summary{Intervals: len(samples)}
		encode(trace.Record{Type: "summary", Summary: &sum})
	}
	c.addSince(before)
	score := l.perCall("trace.score")
	vals["trace.score_us_per_interval"] = score * 1e6
	if closedIntervals > 0 {
		vals["trace.loop_us_per_interval"] = (l.seconds("trace.loop_run")/float64(closedIntervals) - score) * 1e6
	}
	vals["trace.encode_us_per_record"] = l.perCall("trace.encode") * 1e6
	vals["trace.encode_bytes_per_record"] = float64(cw.n) / float64(max(records, 1))
	memoLayers(vals, c, k*len(st.ivs))
	runtimeLayer(vals, lr)
	layerSum := l.seconds("trace.score", "trace.loop_run", "trace.encode") / float64(k)
	vals["composition.unattributed_pct"] = unattributedPct(mean(lr.durs), layerSum)
}

func traceTraceReplay(o options, n int) (*outcome, error) {
	st, err := setupTrace(o)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	k := tracedOps(n)
	modes := traceModes(o.seed, n)[:k]
	lr := loopTrace(st, modes, out)
	vals := map[string]float64{}
	if err := traceSetupLayers(st, vals); err != nil {
		return nil, err
	}
	traceOps(st, modes, lr, out, vals)
	out.metrics = perLayer(vals)
	return out, nil
}
