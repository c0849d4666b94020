package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// The benchmark reads examples/ relative to the repository root, which
// is where it runs from.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// generated returns every input the given seed produces, serialized.
func generated(t *testing.T, seed uint64) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range []any{coldOps(seed, 50), coldWarmup(seed), warmSpace(seed), traceModes(seed, 50)} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, err := traceInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	b.Write(stats)
	hot, reqs, err := editRequests(seed, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hot {
		fmt.Fprintf(&b, "%s %v %s\n", r.Label, r.XML, r.Body)
	}
	for _, spec := range reqs {
		r, err := spec.build(hot)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %v %s\n", r.Label, r.XML, r.Body)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generated(t, 7), generated(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, generated(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	var want, got []string
	for _, m := range bj.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	lr := loopResult{durs: []float64{1}, opUnits: []int{1}, units: 1, ok: 1, attempted: 1}
	for _, m := range endToEnd([]float64{1}, lr, "unit", 1, 1) {
		got = append(got, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("end_to_end:\nBENCHMARK.json %v\nprogram        %v", want, got)
	}
	want, got = nil, nil
	for _, m := range bj.PerLayer {
		want = append(want, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range layerMetrics {
		got = append(got, m.name+" "+m.unit+" "+m.better)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("per_layer:\nBENCHMARK.json %v\nprogram        %v", want, got)
	}
}

// Every edit any seed can draw evaluates cleanly, so no evaluate-edit
// request fails by construction.
func TestEditPoolEvaluates(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates every edit in the pool")
	}
	for i, e := range editPool() {
		req, err := buildRequest(e, i%xmlEvery == 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := evaluateInProcess(req); err != nil {
			t.Errorf("%s: %v", req.Label, err)
		}
	}
}

// Counters that only one caller moves repeat exactly from run to run.
func TestSingleCallerCountersRepeat(t *testing.T) {
	exact := []string{"array.opt_orgs_evaluated_per_unit", "array.memo_misses_per_unit",
		"component.core.misses_per_unit", "component.cache.misses_per_unit",
		"component.fabric.misses_per_unit", "component.mc.misses_per_unit",
		"component.clock.misses_per_unit"}
	dse := func() map[string]float64 {
		st, err := setupDSECold(options{seed: 3}, 12)
		if err != nil {
			t.Fatal(err)
		}
		out := &outcome{}
		vals := traceDSE(st, len(st.ops), true, loopResult{durs: []float64{1}}, out)
		if len(out.problems) > 0 {
			t.Fatal(out.problems)
		}
		return vals
	}
	edit := func() map[string]float64 {
		hot, reqs, err := editRequests(3, 60)
		if err != nil {
			t.Fatal(err)
		}
		out := &outcome{}
		vals := map[string]float64{}
		layerPass(&editRun{hot: hot, reqs: reqs}, len(reqs), out, vals)
		if len(out.problems) > 0 {
			t.Fatal(out.problems)
		}
		return vals
	}
	for name, run := range map[string]func() map[string]float64{"dse-cold": dse, "evaluate-edit": edit} {
		a, b := run(), run()
		for _, m := range exact {
			if a[m] != b[m] {
				t.Errorf("%s: %s = %v then %v", name, m, a[m], b[m])
			}
		}
		if a["array.opt_orgs_evaluated_per_unit"] == 0 {
			t.Errorf("%s: no optimizer work counted", name)
		}
	}
}

// Each workload passes its own output checks on a short run.
func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			run := w.run
			if traced {
				run = w.traced
			}
			out, err := run(options{workload: w.name, seed: 1, trace: traced}, minOps)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(out.problems) > 0 || out.failed > 0 {
				t.Errorf("%s traced=%v: %d failed, problems %v", w.name, traced, out.failed, out.problems)
			}
		}
	}
}
