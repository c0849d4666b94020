package explore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mcpat/internal/chip"
)

// TestEvaluatorReplacedAfterTimeout pins the evaluator lifetime: in one
// worker, a stalled candidate times out, the candidates after it run on
// a fresh evaluator while the stalled one still holds the first, the
// results match an unstalled run, and once the stall is released the
// abandoned evaluator exits instead of leaking.
func TestEvaluatorReplacedAfterTimeout(t *testing.T) {
	space := Space{
		Cores:        []int{8, 16, 32, 64},
		Fabrics:      []chip.InterconnectKind{chip.Mesh},
		ClusterSizes: []int{1},
	}
	// The reference run also warms the memo tiers, so no healthy
	// candidate comes near the deadline below.
	ref, err := SearchContext(context.Background(), quickParams(), space, Constraints{}, MaxThroughput,
		&Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	release := make(chan struct{})
	var stalled atomic.Bool
	var afterStall atomic.Int32 // candidates evaluated while the stall holds its evaluator
	withEvalHook(t, func(c *Candidate) {
		if c.Cores == 16 {
			stalled.Store(true)
			<-release
			return
		}
		if stalled.Load() {
			afterStall.Add(1)
		}
	})
	res, err := SearchContext(context.Background(), quickParams(), space, Constraints{}, MaxThroughput,
		&Options{Workers: 1, CandidateTimeout: 200 * time.Millisecond})
	evaluatedDuringStall := afterStall.Load()
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if evaluatedDuringStall != 2 {
		t.Errorf("%d candidates evaluated while the stalled evaluator was blocked, want 2 on a fresh one",
			evaluatedDuringStall)
	}
	if len(res.Failures) != 1 || res.Failures[0].Candidate.Cores != 16 ||
		!errors.Is(res.Failures[0].Err, context.DeadlineExceeded) {
		t.Fatalf("failures %v, want one deadline on the 16-core candidate", res.Failures)
	}
	var want []Candidate
	for _, c := range ref.Candidates {
		if c.Cores != 16 {
			want = append(want, c)
		}
	}
	if !reflect.DeepEqual(res.Candidates, want) {
		t.Errorf("candidates after the replaced evaluator differ from a Workers: 1 run:\n got %+v\nwant %+v",
			res.Candidates, want)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the stall was released, want the baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWarmCandidateAllocs pins the allocations of one warm
// single-candidate sweep: every synthesis is a memo hit, the reports
// come from the evaluator's arena, and the check builds no strings, so
// what remains is warm chip assembly, perfsim and the sweep's own
// bookkeeping. A change that moves this
// count on purpose re-pins it: run
//
//	go test -run TestWarmCandidateAllocs -v ./internal/explore/
//
// and set wantAllocs to the count the failure reports.
func TestWarmCandidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the pin holds for plain builds")
	}
	const wantAllocs = 60
	run := func() {
		res, err := SearchContext(context.Background(), quickParams(), singlePoint(), Constraints{}, MaxThroughput,
			&Options{Workers: 1})
		if err != nil || res.Feasible != 1 {
			t.Fatalf("warm sweep: feasible=%d err=%v", res.Feasible, err)
		}
	}
	run() // warm the memo tiers
	if got := testing.AllocsPerRun(100, run); got != wantAllocs {
		t.Errorf("warm single-candidate sweep: %v allocs, want %d", got, wantAllocs)
	}
}
