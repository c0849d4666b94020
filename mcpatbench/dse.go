package main

// The dse-cold and dse-warm workloads: exhaustive explore.SearchContext
// sweeps, with the memo tiers reset before every op (cold) or warmed
// once at set-up (warm).

import (
	"context"
	"fmt"
	"runtime"

	"mcpat/internal/array"
	"mcpat/internal/component"
	"mcpat/internal/explore"
)

// dseWorkers is the sweep parallelism: one process, at most two
// workers, so the benchmark's load stays inside a 2-thread host.
func dseWorkers() int { return min(2, runtime.NumCPU()) }

func sweep(op dseOp, workers int) (*explore.Result, error) {
	return explore.SearchContext(context.Background(), op.Params, op.Space,
		explore.Constraints{}, explore.MaxThroughput, &explore.Options{Workers: workers})
}

// checkSweep reports why a sweep result is not a clean one: any failure,
// no feasible best point, or fewer evaluations than the space holds.
// Guard diagnostics surface as failures (the engine fails a candidate
// whose report trips the output guard).
func checkSweep(res *explore.Result, op dseOp) error {
	size, err := op.Space.Size()
	if err != nil {
		return err
	}
	switch {
	case len(res.Failures) > 0:
		return fmt.Errorf("%d failures, first: %v", len(res.Failures), res.Failures[0])
	case res.Best == nil:
		return fmt.Errorf("no feasible candidate")
	case res.Evaluated != size:
		return fmt.Errorf("evaluated %d of %d candidates", res.Evaluated, size)
	}
	return nil
}

func digestSweep(d *digest, res *explore.Result) {
	for _, c := range res.Candidates {
		d.floats(c.TDP, c.AreaMM2, c.Perf, c.RunW, c.Score)
	}
}

// sameSweep reports whether two sweeps produced bit-identical candidate
// lists (Candidate holds only comparable fields).
func sameSweep(a, b *explore.Result) bool {
	if len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			return false
		}
	}
	return true
}

// dseState is a DSE workload after set-up: the ops to run and, for
// dse-warm, the cold pass every op must reproduce.
type dseState struct {
	ops             []dseOp // dse-cold: one per op; dse-warm: the one space
	first           *explore.Result
	workers         int
	setup           setupTimer
	tdpErr, areaErr float64
}

func setupDSECold(o options, n int) (*dseState, error) {
	st := &dseState{workers: dseWorkers()}
	warmup := coldWarmup(o.seed)
	st.setup = setupTimer{reset: resetMemo, run: func() error {
		st.ops = coldOps(o.seed, n)
		var err error
		if st.tdpErr, st.areaErr, err = accuracy(); err != nil {
			return err
		}
		for _, w := range warmup {
			res, err := sweep(w, st.workers)
			if err == nil {
				err = checkSweep(res, w)
			}
			if err != nil {
				return fmt.Errorf("warm-up sweep at %g nm: %w", w.Params.NM, err)
			}
		}
		return nil
	}}
	return st, st.setup.repeat(preSetups)
}

func loopDSECold(st *dseState, out *outcome) loopResult {
	d := newDigest()
	var res *explore.Result
	lr := timedLoop(len(st.ops), loopSteps{
		prep: func(int) { resetMemo() },
		op: func(i int) (int, error) {
			var err error
			if res, err = sweep(st.ops[i], st.workers); err != nil {
				return 0, err
			}
			return res.Evaluated, nil
		},
		check: func(i int) error {
			if err := checkSweep(res, st.ops[i]); err != nil {
				return err
			}
			digestSweep(d, res)
			return nil
		},
	}, out)
	out.digest = d.sum()
	return lr
}

func runDSECold(o options, n int) (*outcome, error) {
	st, err := setupDSECold(o, n)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	lr := loopDSECold(st, out)
	if err := st.setup.repeat(postSetups); err != nil {
		return nil, err
	}
	out.metrics = endToEnd(st.setup.times, lr, "candidate", st.tdpErr, st.areaErr)
	return out, nil
}

func setupDSEWarm(o options) (*dseState, error) {
	st := &dseState{workers: dseWorkers()}
	space := warmSpace(o.seed)
	st.ops = []dseOp{space}
	var err error
	if st.tdpErr, st.areaErr, err = accuracy(); err != nil {
		return nil, err
	}
	st.setup = setupTimer{reset: resetMemo, run: func() error {
		var err error
		if st.first, err = sweep(space, st.workers); err != nil {
			return err
		}
		return checkSweep(st.first, space)
	}}
	return st, st.setup.repeat(preSetups)
}

// loopDSEWarm times n sweeps of the warm space. Every sweep must equal
// the cold set-up pass, and the section must run the array optimizer
// and miss the subsystem memo exactly zero times.
func loopDSEWarm(st *dseState, n int, out *outcome) loopResult {
	space := st.ops[0]
	opt0, sub0 := array.OptStats(), component.Stats()
	var res *explore.Result
	lr := timedLoop(n, loopSteps{
		op: func(int) (int, error) {
			var err error
			if res, err = sweep(space, st.workers); err != nil {
				return 0, err
			}
			return res.Evaluated, nil
		},
		check: func(int) error {
			if err := checkSweep(res, space); err != nil {
				return err
			}
			if !sameSweep(res, st.first) {
				return fmt.Errorf("sweep differs from the cold set-up pass")
			}
			return nil
		},
	}, out)
	if ev := array.OptStats().Delta(opt0).Evaluated; ev != 0 {
		out.fail("warm sweeps ran the array optimizer: %d organizations evaluated", ev)
	}
	if miss := component.Stats().Delta(sub0).Total().Misses; miss != 0 {
		out.fail("warm sweeps missed the subsystem memo %d times", miss)
	}
	d := newDigest()
	digestSweep(d, st.first)
	out.digest = d.sum()
	return lr
}

func runDSEWarm(o options, n int) (*outcome, error) {
	st, err := setupDSEWarm(o)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	lr := loopDSEWarm(st, n, out)
	if err := st.setup.repeat(postSetups); err != nil {
		return nil, err
	}
	out.metrics = endToEnd(st.setup.times, lr, "candidate", st.tdpErr, st.areaErr)
	return out, nil
}
