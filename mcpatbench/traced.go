package main

// Traced DSE runs: each op is replayed as the sequence of public calls
// explore makes per candidate (chip.NewWithWorkers, ReportE and
// guard.CheckReport, then perfsim.Run and ReportE per workload), timed
// call by call, and must reproduce the engine's TDP, area and runtime
// power bit for bit. Cache counters are deltas over a 1-worker engine
// run of the same op, so they repeat exactly across runs.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/cache"
	"mcpat/internal/chip"
	"mcpat/internal/component"
	"mcpat/internal/core"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
	"mcpat/internal/mc"
	"mcpat/internal/perfsim"
	"mcpat/internal/tech"
)

// meshDims mirrors explore's mesh sizing: the smallest power-of-two
// grid holding n nodes, grown alternately in x and y.
func meshDims(n int) (int, int) {
	x, y := 1, 1
	for x*y < n {
		if x <= y {
			x *= 2
		} else {
			y *= 2
		}
	}
	return x, y
}

// candidateConfig mirrors explore's per-candidate chip construction.
func candidateConfig(p explore.Params, c explore.Candidate) (chip.Config, error) {
	banks := c.Cores
	cfg := chip.Config{
		Name:     fmt.Sprintf("dse-%dc-%dkb-%v-cl%d", c.Cores, c.L2PerCoreKB, c.Fabric, c.ClusterSize),
		NM:       p.NM,
		ClockHz:  p.ClockHz,
		NumCores: c.Cores,
		Core: core.Config{
			Threads: p.Threads,
			ICache:  core.CacheParams{Bytes: 16 << 10, BlockBytes: 32, Assoc: 4},
			DCache:  core.CacheParams{Bytes: 8 << 10, BlockBytes: 16, Assoc: 4},
			IntALUs: 1, MulDivs: 1, FPUs: 1,
		},
		MC: &mc.Config{Channels: 4, PeakBandwidth: p.MemBW, LVDS: true},
	}
	switch c.Fabric {
	case chip.Mesh:
		if c.ClusterSize <= 0 || c.Cores%c.ClusterSize != 0 {
			return cfg, fmt.Errorf("cluster %d does not divide %d cores", c.ClusterSize, c.Cores)
		}
		clusters := c.Cores / c.ClusterSize
		mx, my := meshDims(clusters)
		cfg.NoC = chip.NoCSpec{
			Kind: chip.Mesh, FlitBits: 128, MeshX: mx, MeshY: my,
			VirtualChannels: 2, BuffersPerVC: 4, ClusterSize: c.ClusterSize,
		}
		banks = clusters
	case chip.Ring, chip.Bus, chip.Crossbar:
		cfg.NoC = chip.NoCSpec{Kind: c.Fabric, FlitBits: 128}
	}
	cfg.L2 = &cache.Config{
		Name:  "L2",
		Bytes: c.Cores * c.L2PerCoreKB << 10, BlockBytes: 64, Assoc: 8,
		Banks: banks, Directory: true, Sharers: c.Cores,
	}
	return cfg, nil
}

// replayed is what the replay of one candidate produced.
type replayed struct {
	rejected        bool
	tdp, area, runW float64
}

// replayCandidate evaluates one design point through the layers'
// public functions, recording a span per call.
func replayCandidate(l ledger, p explore.Params, c explore.Candidate) (replayed, error) {
	cfg, err := candidateConfig(p, c)
	if err != nil {
		return replayed{rejected: true}, nil
	}
	t := time.Now()
	proc, err := chip.NewWithWorkers(cfg, 0)
	t = l.since("chip.new", t)
	if err != nil {
		if errors.Is(err, guard.ErrInternal) || errors.Is(err, guard.ErrModelDomain) {
			return replayed{}, err
		}
		return replayed{rejected: true}, nil
	}
	rep, err := proc.ReportE(nil)
	t = l.since("chip.report", t)
	if err != nil {
		return replayed{}, err
	}
	ds := guard.CheckReport(rep, nil)
	l.since("guard.check", t)
	if err := ds.Err(); err != nil {
		return replayed{}, err
	}
	r := replayed{tdp: rep.Peak(), area: rep.Area * 1e6}
	dim, _ := meshDims(max(c.Cores/max(c.ClusterSize, 1), 1))
	m := perfsim.Machine{
		Cores: c.Cores, ThreadsPerCore: p.Threads, IssueWidth: 1,
		ClockHz:      p.ClockHz,
		ClusterSize:  c.ClusterSize,
		L2Latency:    math.Ceil(proc.L2.AccessTime()*p.ClockHz) + 4,
		FabricHopLat: 4, MemLatency: 60e-9 * p.ClockHz,
		MeshDim: dim, MemBandwidth: p.MemBW, BusBytes: 16,
	}
	logW := 0.0
	for _, w := range p.Workloads {
		t = time.Now()
		sim, err := perfsim.Run(m, w)
		t = l.since("perfsim.run", t)
		if err != nil {
			return replayed{}, err
		}
		runRep, err := proc.ReportE(&chip.Stats{
			CoreRun:    sim.CoreActivity,
			L2Reads:    sim.L2ReadsSec,
			L2Writes:   sim.L2WritesSec,
			NoCFlits:   sim.FabricFlits,
			MCAccesses: sim.MemAccessesS,
		})
		l.since("chip.report", t)
		if err != nil {
			return replayed{}, err
		}
		logW += math.Log(runRep.RuntimeDynamic + runRep.Leakage())
	}
	r.runW = math.Exp(logW / float64(len(p.Workloads)))
	return r, nil
}

// counters accumulates cache-counter deltas over engine runs.
type counters struct {
	arr array.CacheStats
	opt array.OptimizerStats
	sub component.CacheStats
}

func snapshot() counters {
	return counters{array.Stats(), array.OptStats(), component.Stats()}
}

func (c *counters) addSince(before counters) {
	now := snapshot()
	d, o, s := now.arr.Delta(before.arr), now.opt.Delta(before.opt), now.sub.Delta(before.sub)
	c.arr.Hits += d.Hits
	c.arr.Misses += d.Misses
	c.arr.Entries = now.arr.Entries
	c.opt.Evaluated += o.Evaluated
	c.opt.Pruned += o.Pruned
	for k := range c.sub.Kinds {
		c.sub.Kinds[k].Hits += s.Kinds[k].Hits
		c.sub.Kinds[k].Misses += s.Kinds[k].Misses
		c.sub.Kinds[k].Shared += s.Kinds[k].Shared
	}
	c.sub.Entries = now.sub.Entries
}

// memoLayers records the array and component counters per unit.
func memoLayers(vals map[string]float64, c counters, units int) {
	u := float64(max(units, 1))
	vals["array.memo_hits_per_unit"] = float64(c.arr.Hits) / u
	vals["array.memo_misses_per_unit"] = float64(c.arr.Misses) / u
	vals["array.memo_entries"] = float64(c.arr.Entries)
	vals["array.opt_orgs_evaluated_per_unit"] = float64(c.opt.Evaluated) / u
	vals["array.opt_orgs_pruned_per_unit"] = float64(c.opt.Pruned) / u
	if tot := c.opt.Evaluated + c.opt.Pruned; tot > 0 {
		vals["array.opt_prune_ratio"] = float64(c.opt.Pruned) / float64(tot)
	}
	var shared uint64
	for k := range c.sub.Kinds {
		name := component.Kind(k).String()
		vals["component."+name+".hits_per_unit"] = float64(c.sub.Kinds[k].Hits) / u
		vals["component."+name+".misses_per_unit"] = float64(c.sub.Kinds[k].Misses) / u
		shared += c.sub.Kinds[k].Shared
	}
	vals["component.shared_per_unit"] = float64(shared) / u
	vals["component.hit_ratio"] = c.sub.HitRate()
	vals["component.entries"] = float64(c.sub.Entries)
}

// fingerprintNS times tech.ByFeature(nm).Fingerprint calls.
func fingerprintNS(l ledger, nm float64, calls int) error {
	for i := 0; i < calls; i++ {
		t := time.Now()
		n, err := tech.ByFeature(nm)
		if err != nil {
			return err
		}
		n.Fingerprint()
		l.since("tech.fingerprint", t)
	}
	return nil
}

// traceDSE replays the first k ops. cold resets the memo tiers before
// the engine run and again before the replay, so both see the state
// every timed op started from.
func traceDSE(st *dseState, k int, cold bool, lr loopResult, out *outcome) map[string]float64 {
	l := ledger{}
	var c counters
	engineS, units := 0.0, 0
	for i := 0; i < k; i++ {
		op := st.ops[0]
		if cold {
			op = st.ops[i]
			resetMemo()
		}
		before := snapshot()
		t0 := time.Now()
		res, err := explore.SearchContext(context.Background(), op.Params, op.Space,
			explore.Constraints{}, explore.MaxThroughput, &explore.Options{Workers: 1})
		engineS += time.Since(t0).Seconds()
		c.addSince(before)
		if err == nil {
			err = checkSweep(res, op)
		}
		if err != nil {
			out.fail("traced op %d: engine: %v", i, err)
			continue
		}
		units += res.Evaluated
		byAxes := map[[4]int]explore.Candidate{}
		for _, cand := range res.Candidates {
			byAxes[[4]int{cand.Cores, cand.L2PerCoreKB, int(cand.Fabric), cand.ClusterSize}] = cand
		}
		if cold {
			resetMemo()
		}
		for _, spec := range explore.Enumerate(op.Space) {
			got, err := replayCandidate(l, op.Params, spec)
			want := byAxes[[4]int{spec.Cores, spec.L2PerCoreKB, int(spec.Fabric), spec.ClusterSize}]
			switch {
			case err != nil:
				out.fail("traced op %d: replay %+v: %v", i, spec, err)
			case got.rejected != !want.Feasible:
				out.fail("traced op %d: replay %+v: rejected=%v, engine feasible=%v", i, spec, got.rejected, want.Feasible)
			case !got.rejected && (math.Float64bits(got.tdp) != math.Float64bits(want.TDP) ||
				math.Float64bits(got.area) != math.Float64bits(want.AreaMM2) ||
				math.Float64bits(got.runW) != math.Float64bits(want.RunW)):
				out.fail("traced op %d: replay %+v: TDP/area/runW %x/%x/%x, engine %x/%x/%x", i, spec,
					got.tdp, got.area, got.runW, want.TDP, want.AreaMM2, want.RunW)
			}
		}
		if err := fingerprintNS(l, op.Params.NM, 20); err != nil {
			out.fail("traced op %d: %v", i, err)
		}
	}
	u := float64(max(units, 1))
	children := l.seconds("chip.new", "chip.report", "guard.check", "perfsim.run")
	vals := map[string]float64{
		"explore.self_us_per_unit":     (engineS - children) / u * 1e6,
		"chip.new_us_per_call":         l.perCall("chip.new") * 1e6,
		"chip.new_calls_per_unit":      float64(l.calls("chip.new")) / u,
		"chip.report_us_per_call":      l.perCall("chip.report") * 1e6,
		"chip.report_calls_per_unit":   float64(l.calls("chip.report")) / u,
		"guard.check_us_per_call":      l.perCall("guard.check") * 1e6,
		"perfsim.run_us_per_call":      l.perCall("perfsim.run") * 1e6,
		"perfsim.calls_per_unit":       float64(l.calls("perfsim.run")) / u,
		"tech.fingerprint_ns_per_call": l.perCall("tech.fingerprint") * 1e9,
	}
	memoLayers(vals, c, units)
	runtimeLayer(vals, lr)
	// The timed ops ran on st.workers workers: the serial layer sum
	// (explore self time plus its children, which is the 1-worker engine
	// time) divided by the worker count is the ideal parallel op time, so
	// the gap is the pool's parallel loss.
	vals["composition.unattributed_pct"] = unattributedPct(mean(lr.durs), engineS/float64(k)/float64(st.workers))
	return vals
}

func traceDSECold(o options, n int) (*outcome, error) {
	st, err := setupDSECold(o, n)
	if err != nil {
		return nil, err
	}
	k := tracedOps(n)
	st.ops = st.ops[:k]
	out := &outcome{}
	lr := loopDSECold(st, out)
	out.metrics = perLayer(traceDSE(st, k, true, lr, out))
	return out, nil
}

func traceDSEWarm(o options, n int) (*outcome, error) {
	st, err := setupDSEWarm(o)
	if err != nil {
		return nil, err
	}
	k := tracedOps(n)
	out := &outcome{}
	lr := loopDSEWarm(st, k, out)
	out.metrics = perLayer(traceDSE(st, k, false, lr, out))
	return out, nil
}
