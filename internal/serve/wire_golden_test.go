package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcpat/internal/chip"
	"mcpat/internal/distrib"
	"mcpat/internal/explore"
	"mcpat/internal/guard"
)

// The golden wire bytes of the DSE protocol. Clients, workers of other
// builds, and journals written by earlier servers all depend on these
// exact field names, field order, and omitempty choices; a change here
// is a protocol change, not a refactor.
const (
	goldenDSERequest = `{"nm":22,"clock_hz":2500000000,"threads":4,"mem_bw_bytes_per_s":128000000000,` +
		`"cores":[16,32],"l2_per_core_kb":[128,256],"fabrics":["mesh","ring"],"cluster_sizes":[1,2],` +
		`"max_area_mm2":400,"max_tdp_w":250,"objective":"perf/watt","search":"pareto","budget":24,"seed":7,` +
		`"workers":3,"candidate_timeout_ms":1500,"fail_fast":true}`

	goldenShardRequest = `{"nm":22,"clock_hz":2500000000,"threads":4,"mem_bw_bytes_per_s":128000000000,` +
		`"cores":[16,32],"l2_per_core_kb":[128,256],"fabrics":["mesh","ring"],"cluster_sizes":[1,2],` +
		`"max_area_mm2":400,"max_tdp_w":250,"objective":"1/ED2AP","start":3,"end":11,"workers":2,` +
		`"candidate_timeout_ms":1500}`

	goldenErrorFrame = `{"type":"error","error":{"kind":"timeout","path":"dse[2c-128kb-bus-cl1]",` +
		`"message":"dse[2c-128kb-bus-cl1]: context deadline exceeded"}}`

	goldenFailures = `[{"candidate":{"cores":2,"l2_per_core_kb":128,"fabric":"bus","cluster_size":1,` +
		`"tdp_w":0,"area_mm2":0,"gips":0,"runtime_w":0,"feasible":false,"score":0},` +
		`"error":{"kind":"timeout","path":"dse[2c-128kb-bus-cl1]","message":"dse[2c-128kb-bus-cl1]: context deadline exceeded"}},` +
		`{"candidate":{"cores":4,"l2_per_core_kb":64,"fabric":"mesh","cluster_size":2,` +
		`"tdp_w":0,"area_mm2":0,"gips":0,"runtime_w":0,"feasible":false,"score":0},` +
		`"error":{"kind":"internal","path":"dse[4c-64kb-mesh-cl2]","message":"internal model error at dse[4c-64kb-mesh-cl2]: recovered panic: boom"}}]`

	goldenDSEBadFabric = "{\n  \"error\": {\n    \"kind\": \"bad_request\",\n" +
		"    \"message\": \"unknown fabric \\\"warp-drive\\\" (none|bus|crossbar|mesh|ring)\"\n  }\n}\n"

	goldenShardBadFabric = "{\n  \"error\": {\n    \"kind\": \"config\",\n    \"path\": \"dse.shard\",\n" +
		"    \"message\": \"invalid configuration at dse.shard: unknown fabric \\\"warp-drive\\\" (none|bus|crossbar|mesh|ring)\"\n  }\n}\n"
)

// goldenSweepInputs are the engine inputs every golden sweep encodes.
func goldenSweepInputs() (explore.Params, explore.Space, explore.Constraints) {
	return explore.Params{NM: 22, ClockHz: 2.5e9, Threads: 4, MemBW: 1.28e11},
		explore.Space{
			Cores:        []int{16, 32},
			L2PerCoreKB:  []int{128, 256},
			Fabrics:      []chip.InterconnectKind{chip.Mesh, chip.Ring},
			ClusterSizes: []int{1, 2},
		},
		explore.Constraints{MaxAreaMM2: 400, MaxTDP: 250}
}

func marshalString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDSEWireGolden pins the exact bytes of every DSE wire form — the
// /v1/dse request, the shard request, the shard error frame, a report's
// failure entries, and the classified 400 bodies of both endpoints —
// and replays a checked-in journal submit record into engine inputs.
func TestDSEWireGolden(t *testing.T) {
	t.Run("dse-request", func(t *testing.T) {
		// Field-by-field assignment, not a composite literal, so the
		// golden bytes stay independent of how the struct is composed.
		var req DSERequest
		req.NM, req.ClockHz, req.Threads, req.MemBW = 22, 2.5e9, 4, 1.28e11
		req.Cores, req.L2PerCoreKB = []int{16, 32}, []int{128, 256}
		req.Fabrics, req.ClusterSizes = []string{"mesh", "ring"}, []int{1, 2}
		req.MaxAreaMM2, req.MaxTDPW, req.Objective = 400, 250, "perf/watt"
		req.Search, req.Budget, req.Seed = "pareto", 24, 7
		req.Workers, req.CandidateTimeoutMS, req.FailFast = 3, 1500, true
		if got := marshalString(t, &req); got != goldenDSERequest {
			t.Errorf("DSERequest bytes changed:\n got %s\nwant %s", got, goldenDSERequest)
		}
		var back DSERequest
		if err := json.Unmarshal([]byte(goldenDSERequest), &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Errorf("DSERequest did not round-trip:\n got %+v\nwant %+v", back, req)
		}
	})

	t.Run("shard-request", func(t *testing.T) {
		p, space, cons := goldenSweepInputs()
		spec := distrib.ShardSpec{
			Params: p, Space: space, Cons: cons, Obj: explore.MinED2AP,
			Start: 3, End: 11, Workers: 2,
			SynthWorkers:     5, // process-local: never on the wire
			CandidateTimeout: 1500 * time.Millisecond,
		}
		if got := marshalString(t, spec.Wire()); got != goldenShardRequest {
			t.Errorf("shard request bytes changed:\n got %s\nwant %s", got, goldenShardRequest)
		}
		var req distrib.ShardRequest
		if err := json.Unmarshal([]byte(goldenShardRequest), &req); err != nil {
			t.Fatal(err)
		}
		back, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		spec.SynthWorkers = 0
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("shard spec did not round-trip:\n got %+v\nwant %+v", back, spec)
		}
	})

	t.Run("error-frame", func(t *testing.T) {
		var f distrib.Frame
		if err := json.Unmarshal([]byte(goldenErrorFrame), &f); err != nil {
			t.Fatal(err)
		}
		if f.Type != "error" || f.Error == nil || f.Error.Kind != "timeout" ||
			f.Error.Path != "dse[2c-128kb-bus-cl1]" ||
			f.Error.Message != "dse[2c-128kb-bus-cl1]: context deadline exceeded" {
			t.Fatalf("error frame decoded to %+v (error %+v)", f, f.Error)
		}
		if got := marshalString(t, f); got != goldenErrorFrame {
			t.Errorf("error frame bytes changed:\n got %s\nwant %s", got, goldenErrorFrame)
		}
	})

	t.Run("report-failures", func(t *testing.T) {
		rep := NewDSEReport(&explore.Result{Failures: []explore.Failure{
			{
				Candidate: explore.Candidate{Cores: 2, L2PerCoreKB: 128, Fabric: chip.Bus, ClusterSize: 1},
				Err:       guard.At(context.DeadlineExceeded, "dse[2c-128kb-bus-cl1]"),
			},
			{
				Candidate: explore.Candidate{Cores: 4, L2PerCoreKB: 64, Fabric: chip.Mesh, ClusterSize: 2},
				Err:       guard.Internalf("dse[4c-64kb-mesh-cl2]", "recovered panic: boom\ngoroutine 7 [running]:"),
			},
		}}, explore.MaxThroughput)
		if got := marshalString(t, rep.Failures); got != goldenFailures {
			t.Errorf("failure entries changed:\n got %s\nwant %s", got, goldenFailures)
		}
	})

	t.Run("error-bodies", func(t *testing.T) {
		s := New(Config{WorkerMode: true})
		defer s.Shutdown(context.Background())
		for _, tc := range []struct{ path, want string }{
			{"/v1/dse", goldenDSEBadFabric},
			{"/v1/dse/shard", goldenShardBadFabric},
		} {
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("POST", tc.path,
				strings.NewReader(`{"cores":[2],"fabrics":["warp-drive"],"start":0,"end":1}`)))
			if rr.Code != 400 || rr.Body.String() != tc.want {
				t.Errorf("%s: status %d body %q, want 400 %q", tc.path, rr.Code, rr.Body.String(), tc.want)
			}
		}
	})

	t.Run("journal-replay", func(t *testing.T) {
		path := filepath.Join("testdata", "journal-submit.jsonl")
		live, err := replayJournal(path, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if len(live) != 1 || live[0].ID != "job-00112233aabbccdd" ||
			!live[0].SubmittedAt.Equal(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)) {
			t.Fatalf("replayed %+v", live)
		}
		p, space, cons, obj, opts, err := live[0].Req.explore()
		if err != nil {
			t.Fatal(err)
		}
		wantP, wantSpace, wantCons := goldenSweepInputs()
		wantOpts := explore.Options{
			Workers: 3, CandidateTimeout: 1500 * time.Millisecond, FailFast: true,
			Search: explore.SearchPareto, Budget: 24, Seed: 7,
		}
		if !reflect.DeepEqual(p, wantP) || !reflect.DeepEqual(space, wantSpace) ||
			cons != wantCons || obj != explore.MaxPerfPerWatt || !reflect.DeepEqual(*opts, wantOpts) {
			t.Errorf("journal replay yields\n %+v %+v %+v %v %+v\nwant\n %+v %+v %+v %v %+v",
				p, space, cons, obj, *opts, wantP, wantSpace, wantCons, explore.MaxPerfPerWatt, wantOpts)
		}
		// Re-journaling the replayed job writes the checked-in bytes.
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := journalRecord{Op: "submit", ID: live[0].ID, Time: live[0].SubmittedAt, Req: live[0].Req}
		if got := marshalString(t, &rec) + "\n"; got != string(want) {
			t.Errorf("re-journaled record changed:\n got %s\nwant %s", got, want)
		}
	})
}
