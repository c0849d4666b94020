package distrib_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcpat/internal/array"
	"mcpat/internal/chip"
	"mcpat/internal/cliutil"
	"mcpat/internal/component"
	"mcpat/internal/distrib"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
	"mcpat/internal/serve"
)

// TestDistributedFailuresMatchLocal pins the failure half of the
// bit-identity contract: a sweep whose every candidate times out reports
// the same classified failures (kind, component path, message) whether
// it ran in-process or through the coordinator and the shard wire.
func TestDistributedFailuresMatchLocal(t *testing.T) {
	space := explore.Space{
		Cores:        []int{2, 4},
		L2PerCoreKB:  []int{64, 128},
		Fabrics:      []chip.InterconnectKind{chip.Bus},
		ClusterSizes: []int{1},
	}
	obj := explore.MaxThroughput
	failures := func(name string, run func() (*explore.Result, error)) string {
		t.Helper()
		// Cold tiers: a memo hit could beat the 1ns deadline.
		array.ResetCache()
		component.ResetCache()
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Failures) != 4 {
			t.Fatalf("%s: %d failures, want every one of the 4 candidates to time out", name, len(res.Failures))
		}
		b, err := json.Marshal(serve.NewDSEReport(res, obj).Failures)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	local := failures("local", func() (*explore.Result, error) {
		return explore.SearchContext(context.Background(), explore.Params{}, space, explore.Constraints{}, obj,
			&explore.Options{CandidateTimeout: time.Nanosecond})
	})
	dist := failures("distributed", func() (*explore.Result, error) {
		return distrib.Run(context.Background(), explore.Params{}, space, explore.Constraints{}, obj,
			&distrib.Options{CandidateTimeout: time.Nanosecond})
	})
	if dist != local {
		t.Fatalf("distributed failures differ from local:\n dist  %s\n local %s", dist, local)
	}
	var entries []serve.DSEFailureJSON
	if err := json.Unmarshal([]byte(local), &entries); err != nil {
		t.Fatal(err)
	}
	if e := entries[0].Error; e.Kind != "timeout" || e.Path == "" {
		t.Errorf("failure classified as %+v, want kind timeout with a component path", e)
	}
}

// TestClientPreStreamErrorKeepsClass pins that a worker's pre-stream
// rejection keeps its guard classification through the client: a 400
// config body is still guard.ErrConfig (exit code 2) on the
// coordinator, not an unclassified transport failure.
func TestClientPreStreamErrorKeepsClass(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, `{"error":{"kind":"config","path":"dse.shard","message":"invalid configuration at dse.shard: unknown fabric \"warp-drive\""}}`)
	}))
	defer ts.Close()

	c := &distrib.Client{Base: ts.URL}
	_, err := c.EvalShard(context.Background(), distrib.ShardSpec{
		Space: explore.Space{Cores: []int{2}, L2PerCoreKB: []int{64}},
		Start: 0, End: 1,
	}, nil)
	if err == nil {
		t.Fatal("want an error from the rejecting worker, got success")
	}
	if !errors.Is(err, guard.ErrConfig) {
		t.Errorf("errors.Is(err, guard.ErrConfig) = false for %v", err)
	}
	if code := cliutil.ExitCode(err); code != cliutil.ExitConfig {
		t.Errorf("exit code %d, want %d for %v", code, cliutil.ExitConfig, err)
	}
}

// TestRemoteTimeoutMustBeWholeMilliseconds pins that a per-candidate
// timeout the shard wire cannot carry exactly is a config error before
// any shard is dispatched. The wire sends whole milliseconds, so a 1ns
// deadline used to reach remote workers as no deadline at all: on this
// 16-point sweep a local run reported 16 timeouts and a distributed one
// only the local worker's share of them.
func TestRemoteTimeoutMustBeWholeMilliseconds(t *testing.T) {
	var dispatched atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dispatched.Add(1)
		http.Error(w, "no shard should be dispatched", http.StatusTeapot)
	}))
	defer ts.Close()

	space := explore.Space{
		Cores:        []int{2, 4, 8, 16},
		L2PerCoreKB:  []int{64, 128, 256, 512},
		ClusterSizes: []int{1},
	}
	for _, timeout := range []time.Duration{time.Nanosecond, 1500 * time.Microsecond} {
		res, err := distrib.Run(context.Background(), explore.Params{}, space, explore.Constraints{},
			explore.MaxThroughput, &distrib.Options{Remotes: []string{ts.URL}, CandidateTimeout: timeout})
		if !errors.Is(err, guard.ErrConfig) {
			t.Errorf("timeout %v: err = %v, want guard.ErrConfig", timeout, err)
		}
		if code := cliutil.ExitCode(err); code != cliutil.ExitConfig {
			t.Errorf("timeout %v: exit code %d, want %d", timeout, code, cliutil.ExitConfig)
		}
		if res != nil {
			t.Errorf("timeout %v: rejected sweep returned a result", timeout)
		}
	}
	if n := dispatched.Load(); n != 0 {
		t.Errorf("%d shard requests reached the worker, want none", n)
	}
}
