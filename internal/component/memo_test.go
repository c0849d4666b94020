package component

import (
	"fmt"
	"testing"
)

// resetForTest gives each test a clean, enabled cache.
func resetForTest(t *testing.T) {
	t.Helper()
	prev := SetCacheEnabled(true)
	ResetCache()
	t.Cleanup(func() {
		SetCacheEnabled(prev)
		ResetCache()
	})
}

type testKey struct{ ID int }

var (
	testCores  = NewCache[testKey, int](KindCore)
	testCaches = NewCache[testKey, int](KindCache)
	testClocks = NewCache[testKey, int](KindClock)
)

func TestMemoizeKeysAndKindsAreDistinct(t *testing.T) {
	resetForTest(t)
	mk := func(v int) func() (int, error) {
		return func() (int, error) { return v, nil }
	}
	if v, _ := testCores.Do(testKey{1}, nil, mk(10)); v != 10 {
		t.Fatalf("got %d", v)
	}
	// Same key value under a different kind must not collide.
	if v, _ := testCaches.Do(testKey{1}, nil, mk(20)); v != 20 {
		t.Errorf("kind collision: got %d, want 20", v)
	}
	// Different key under the same kind must not collide.
	if v, _ := testCores.Do(testKey{2}, nil, mk(30)); v != 30 {
		t.Errorf("key collision: got %d, want 30", v)
	}
	cs := Stats()
	if cs.Entries != 3 || cs.Total().Misses != 3 {
		t.Errorf("stats = %+v, want 3 entries / 3 misses", cs)
	}
	if cs.Kinds[KindCore].Misses != 2 || cs.Kinds[KindCache].Misses != 1 {
		t.Errorf("per-kind misses = %+v, want core 2 / cache 1", cs.Kinds)
	}
}

// TestMemoizeDisabledBypasses: SetCacheEnabled switches every subsystem
// cache at once, and the bypasses count under the caller's kind.
func TestMemoizeDisabledBypasses(t *testing.T) {
	resetForTest(t)
	SetCacheEnabled(false)
	var runs int
	synth := func() (int, error) { runs++; return 1, nil }
	for i := 0; i < 3; i++ {
		if _, err := testClocks.Do(testKey{1}, nil, synth); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Errorf("synthesis ran %d times with cache disabled, want 3", runs)
	}
	cs := Stats()
	if k := cs.Kinds[KindClock]; k.Bypassed != 3 || k.Hits != 0 || k.Misses != 0 {
		t.Errorf("counters = %+v, want 3 bypassed only", k)
	}
	if cs.Entries != 0 {
		t.Errorf("Entries = %d, want 0 (disabled runs must not populate)", cs.Entries)
	}
}

func TestCacheStatsDeltaAndHitRate(t *testing.T) {
	var a, b CacheStats
	a.Kinds[KindCore] = KindStats{Hits: 10, Misses: 4, Shared: 1, Bypassed: 2}
	a.Entries = 3
	b.Kinds[KindCore] = KindStats{Hits: 25, Misses: 5, Shared: 2, Bypassed: 2}
	b.Kinds[KindCache] = KindStats{Hits: 5, Misses: 5}
	b.Entries = 7
	d := b.Delta(a)
	if got := d.Kinds[KindCore]; got != (KindStats{Hits: 15, Misses: 1, Shared: 1, Bypassed: 0}) {
		t.Errorf("delta core = %+v", got)
	}
	if got := d.Kinds[KindCache]; got != (KindStats{Hits: 5, Misses: 5}) {
		t.Errorf("delta cache = %+v", got)
	}
	if d.Entries != 7 {
		t.Errorf("delta entries = %d, want newer snapshot's 7", d.Entries)
	}
	if hr := d.HitRate(); hr != float64(20)/float64(26) {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindCore: "core", KindCache: "cache", KindFabric: "fabric",
		KindMC: "mc", KindClock: "clock",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if fmt.Sprint(Kind(99)) != "unknown" {
		t.Errorf("out-of-range kind should print unknown")
	}
}
