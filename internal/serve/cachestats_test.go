package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcpat/internal/array"
	"mcpat/internal/clock"
	"mcpat/internal/component"
	"mcpat/internal/explore"
	"mcpat/internal/tech"
	"mcpat/internal/tech/techtest"
)

// cacheFields decodes a JSON object and returns the compacted bytes of
// the named members (member order and number formatting intact).
func cacheFields(t *testing.T, body []byte, names ...string) map[string]string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	out := make(map[string]string, len(names))
	for _, n := range names {
		var b bytes.Buffer
		if err := json.Compact(&b, obj[n]); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		out[n] = b.String()
	}
	return out
}

// TestDSEReportCacheStatsWireForm pins the bytes of the array and
// subsystem cache counters in a DSE report: member names, order,
// omitted idle kinds and omitempty fields.
func TestDSEReportCacheStatsWireForm(t *testing.T) {
	res := &explore.Result{
		Cache: array.CacheStats{Hits: 30, Misses: 10, Shared: 2, Bypassed: 1, Entries: 15},
	}
	res.Subsys.Kinds[component.KindCore] = component.KindStats{Hits: 7, Misses: 1}
	res.Subsys.Kinds[component.KindFabric] = component.KindStats{Hits: 1, Misses: 2, Shared: 3, Bypassed: 4}
	res.Subsys.Entries = 3
	body, err := json.Marshal(NewDSEReport(res, explore.MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	got := cacheFields(t, body, "cache", "subsys_cache")
	want := map[string]string{
		"cache": `{"hits":30,"misses":10,"shared":2,"bypassed":1,"entries":15,"hit_rate":0.75}`,
		"subsys_cache": `{"hits":8,"misses":3,"shared":3,"bypassed":4,"entries":3,"hit_rate":0.7272727272727273,` +
			`"kinds":{"core":{"hits":7,"misses":1},"fabric":{"hits":1,"misses":2,"shared":3,"bypassed":4}}}`,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], w)
		}
	}
}

// TestMetricsCacheStatsWireForm pins the same counters in GET /metrics,
// where they are deltas since the server started.
func TestMetricsCacheStatsWireForm(t *testing.T) {
	array.ResetCache()
	component.ResetCache()
	t.Cleanup(func() {
		array.SetCacheEnabled(true)
		component.SetCacheEnabled(true)
	})
	_, ts := newTestServer(t, Config{})

	n := techtest.Node(45)
	arr := array.Config{Name: "pin", Tech: n, Periph: tech.HP, Cell: tech.HP,
		Bytes: 8 * 1024, BlockBits: 512, RWPorts: 1}
	clk := clock.Config{Tech: n, Dev: tech.HP, ChipArea: 1e-5, ClockHz: 1e9}
	for i := 0; i < 3; i++ {
		if i == 2 {
			array.SetCacheEnabled(false)
			component.SetCacheEnabled(false)
		}
		if _, err := array.New(arr); err != nil {
			t.Fatal(err)
		}
		if _, err := clock.Synthesize(clk); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := doJSON(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	got := cacheFields(t, body, "synth_cache", "subsys_cache")
	want := map[string]string{
		"synth_cache": `{"hits":1,"misses":1,"shared":0,"bypassed":1,"entries":1,"hit_rate":0.5}`,
		"subsys_cache": `{"hits":1,"misses":1,"shared":0,"bypassed":1,"entries":1,"hit_rate":0.5,` +
			`"kinds":{"clock":{"hits":1,"misses":1,"bypassed":1}}}`,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], w)
		}
	}
}
