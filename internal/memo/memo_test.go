package memo

import (
	"encoding/binary"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcpat/internal/persist"
)

type testKey struct{ ID int }

// shared returns a one-tier group and a cache with shared values.
func shared[V any]() (*Group, *Cache[testKey, V]) {
	g := NewGroup(1)
	return g, New[testKey, V](g, 0, nil)
}

func TestHitReturnsSharedValue(t *testing.T) {
	g, c := shared[*int]()
	var runs atomic.Int32
	synth := func() (*int, error) {
		runs.Add(1)
		v := 42
		return &v, nil
	}
	a, err := c.Do(testKey{1}, nil, synth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Do(testKey{1}, nil, synth)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("synthesis ran %d times, want 1", runs.Load())
	}
	if a != b {
		t.Error("hit returned a different instance; without clone values must be shared")
	}
	if s := g.Stats(0); s != (Stats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

// TestCloneOnHitAndMiss: with a clone policy every caller, the
// populating one included, receives its own copy of the cached value.
func TestCloneOnHitAndMiss(t *testing.T) {
	g := NewGroup(1)
	c := New[testKey](g, 0, func(v *int) *int { cp := *v; return &cp })
	var stored *int
	synth := func() (*int, error) { v := 7; stored = &v; return &v, nil }
	a, _ := c.Do(testKey{1}, nil, synth)
	if a == stored {
		t.Fatal("miss returned the cached instance, want a clone")
	}
	*a = -1
	b, _ := c.Do(testKey{1}, nil, synth)
	if b == stored || b == a || *b != 7 {
		t.Errorf("hit = %p (%d); want a fresh copy of 7", b, *b)
	}
}

func TestErrorNotCached(t *testing.T) {
	g, c := shared[int]()
	boom := errors.New("boom")
	var runs int
	synth := func() (int, error) {
		runs++
		if runs == 1 {
			return 0, boom
		}
		return 7, nil
	}
	if _, err := c.Do(testKey{1}, nil, synth); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if s := g.Stats(0); s.Entries != 0 || s.Misses != 0 {
		t.Errorf("failed synthesis left %+v", s)
	}
	v, err := c.Do(testKey{1}, nil, synth)
	if err != nil || v != 7 {
		t.Fatalf("retry after error: v=%d err=%v", v, err)
	}
	if runs != 2 {
		t.Errorf("synthesis ran %d times, want 2 (errors must not be cached)", runs)
	}
}

// TestFailedFlightWaiterReruns: a caller that joined a flight which then
// failed re-runs its own synthesis (Bypassed) instead of receiving the
// owner's error.
func TestFailedFlightWaiterReruns(t *testing.T) {
	g, c := shared[string]()
	started, release := make(chan struct{}), make(chan struct{})
	ownerDone := make(chan error)
	go func() {
		_, err := c.Do(testKey{1}, nil, func() (string, error) {
			close(started)
			<-release
			return "", errors.New("owner failed")
		})
		ownerDone <- err
	}()
	<-started
	waiterDone := make(chan string)
	go func() {
		v, err := c.Do(testKey{1}, nil, func() (string, error) { return "waiter", nil })
		if err != nil {
			t.Error(err)
		}
		waiterDone <- v
	}()
	waitFor(t, func() bool { return g.Stats(0).Shared == 1 })
	close(release)
	if err := <-ownerDone; err == nil {
		t.Error("owner should see its own error")
	}
	if v := <-waiterDone; v != "waiter" {
		t.Errorf("waiter got %q, want its own synthesis", v)
	}
	if s := g.Stats(0); s != (Stats{Shared: 1, Bypassed: 1}) {
		t.Errorf("stats = %+v, want 1 shared / 1 bypassed", s)
	}
}

func TestDisabledBypassesAndSkipsDisk(t *testing.T) {
	store := installStore(t)
	g, c := shared[int]()
	if prev := g.SetEnabled(false); !prev {
		t.Error("a new group should start enabled")
	}
	if g.Enabled() {
		t.Error("Enabled() true after disabling")
	}
	var runs int
	synth := func() (int, error) { runs++; return 1, nil }
	for i := 0; i < 3; i++ {
		if _, err := c.Do(testKey{1}, testCodec, synth); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 3 {
		t.Errorf("synthesis ran %d times with caching disabled, want 3", runs)
	}
	if s := g.Stats(0); s != (Stats{Bypassed: 3}) {
		t.Errorf("stats = %+v, want 3 bypassed only", s)
	}
	if ds := store.Stats(); ds.Hits+ds.Misses != 0 || ds.Entries != 0 {
		t.Errorf("disabled cache touched the disk tier: %+v", ds)
	}
}

func TestPanicUnblocksAndRetries(t *testing.T) {
	g, c := shared[int]()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the synthesis panic to propagate")
			}
		}()
		c.Do(testKey{1}, nil, func() (int, error) { panic("model fault") })
	}()
	// The panicked entry must be gone: a later call runs a real synthesis.
	v, err := c.Do(testKey{1}, nil, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("after panic: v=%d err=%v", v, err)
	}
	if s := g.Stats(0); s.Entries != 1 {
		t.Errorf("Entries = %d, want 1", s.Entries)
	}
}

// TestConcurrentSingleFlight is the -race proof of the cache: many
// goroutines synthesize overlapping keys; every key's synthesis must run
// exactly once and every caller must observe the same shared instance.
func TestConcurrentSingleFlight(t *testing.T) {
	g, c := shared[*int]()
	const (
		workers = 16
		keys    = 8
		rounds  = 25
	)
	var runs [keys]atomic.Int32
	got := make([][]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*int, keys)
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					v, err := c.Do(testKey{k}, nil, func() (*int, error) {
						runs[k].Add(1)
						x := k
						return &x, nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					if got[w][k] == nil {
						got[w][k] = v
					} else if got[w][k] != v {
						t.Errorf("worker %d key %d: instance changed between calls", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d synthesized %d times, want 1", k, n)
		}
		for w := 1; w < workers; w++ {
			if got[w][k] != got[0][k] {
				t.Errorf("key %d: workers observed different instances", k)
				break
			}
		}
	}
	s := g.Stats(0)
	if s.Misses != keys || s.Entries != keys {
		t.Errorf("misses = %d, entries = %d, want %d", s.Misses, s.Entries, keys)
	}
	if want := uint64(workers*rounds*keys - keys); s.Hits != want {
		t.Errorf("hits = %d, want %d", s.Hits, want)
	}
}

// TestStaleFlightKeepsNewerEntry: a flight started before Reset that
// then fails must not remove the entry of a newer flight for the same
// key. Sequence: A owns the key and blocks, Reset runs, B starts a new
// flight and blocks, A fails, C arrives - C must join B's flight.
func TestStaleFlightKeepsNewerEntry(t *testing.T) {
	g, c := shared[int]()
	var wg sync.WaitGroup
	do := func(synth func() (int, error)) <-chan struct{} {
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			c.Do(testKey{1}, nil, synth)
		}()
		return done
	}
	aStarted, aRelease := make(chan struct{}), make(chan struct{})
	aDone := do(func() (int, error) {
		close(aStarted)
		<-aRelease
		return 0, errors.New("stale flight failed")
	})
	<-aStarted
	g.Reset()

	var bRuns atomic.Int32
	bStarted, bRelease := make(chan struct{}, 2), make(chan struct{})
	synthB := func() (int, error) {
		bRuns.Add(1)
		bStarted <- struct{}{}
		<-bRelease
		return 2, nil
	}
	do(synthB)
	<-bStarted
	close(aRelease)
	<-aDone

	do(synthB) // C: joins B's flight, or (if A dropped B's entry) starts its own
	waitFor(t, func() bool { return g.Stats(0).Shared == 1 || bRuns.Load() == 2 })
	close(bRelease)
	wg.Wait()
	if n := bRuns.Load(); n != 1 {
		t.Errorf("synthesis ran %d times after the reset, want 1", n)
	}
	if s := g.Stats(0); s != (Stats{Hits: 1, Misses: 1, Shared: 1, Entries: 1}) {
		t.Errorf("stats = %+v, want C to share B's flight", s)
	}
}

func TestGroupSumsTierAndResetsAll(t *testing.T) {
	g := NewGroup(2)
	a := New[testKey, int](g, 0, nil)
	b := New[string, int](g, 0, nil)
	other := New[testKey, int](g, 1, nil)
	one := func() (int, error) { return 1, nil }
	a.Do(testKey{1}, nil, one)
	b.Do("x", nil, one)
	b.Do("x", nil, one)
	other.Do(testKey{1}, nil, one)
	if s := g.Stats(0); s != (Stats{Hits: 1, Misses: 2, Entries: 2}) {
		t.Errorf("tier 0 = %+v, want both caches' counters and entries", s)
	}
	if s := g.Stats(1); s != (Stats{Misses: 1, Entries: 1}) {
		t.Errorf("tier 1 = %+v", s)
	}
	g.Reset()
	if s0, s1 := g.Stats(0), g.Stats(1); s0 != (Stats{}) || s1 != (Stats{}) {
		t.Errorf("after reset: %+v %+v", s0, s1)
	}
}

// testCodec round-trips ints through the disk tier.
var testCodec = &Codec[testKey, int]{
	NS:  "memo.test.v1",
	Key: func(k testKey) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(k.ID)) },
	Encode: func(v int) ([]byte, error) {
		return []byte(strconv.Itoa(v)), nil
	},
	Decode: func(b []byte) (int, error) { return strconv.Atoi(string(b)) },
}

func installStore(t *testing.T) *persist.Store {
	t.Helper()
	s, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	prev := persist.SetDefault(s)
	t.Cleanup(func() {
		persist.SetDefault(prev)
		s.Close()
	})
	return s
}

// TestDiskTier: the flight owner publishes to disk, a fresh memory tier
// hydrates from it without synthesizing (counted as a miss), and a
// payload that does not decode falls through to synthesis.
func TestDiskTier(t *testing.T) {
	store := installStore(t)
	g, c := shared[int]()
	var runs int
	synth := func(v int) func() (int, error) {
		return func() (int, error) { runs++; return v, nil }
	}
	if v, _ := c.Do(testKey{1}, testCodec, synth(11)); v != 11 {
		t.Fatalf("cold = %d", v)
	}
	if store.Stats().Entries != 1 {
		t.Fatalf("cold synthesis published %d disk entries, want 1", store.Stats().Entries)
	}
	g.Reset()
	if v, _ := c.Do(testKey{1}, testCodec, synth(99)); v != 11 {
		t.Errorf("hydrated = %d, want the published 11", v)
	}
	if runs != 1 {
		t.Errorf("synthesis ran %d times, want 1 (disk hydrate)", runs)
	}
	if s := g.Stats(0); s != (Stats{Misses: 1, Entries: 1}) {
		t.Errorf("after hydrate: %+v, want one memory miss", s)
	}

	store.Put(testCodec.NS, testCodec.Key(testKey{2}), []byte("not a number"))
	if v, err := c.Do(testKey{2}, testCodec, synth(22)); err != nil || v != 22 {
		t.Errorf("undecodable entry: v=%d err=%v, want cold synthesis", v, err)
	}
}

func TestStatsDeltaAndHitRate(t *testing.T) {
	prev := Stats{Hits: 10, Misses: 5, Shared: 2, Bypassed: 1, Entries: 5}
	now := Stats{Hits: 40, Misses: 15, Shared: 4, Bypassed: 1, Entries: 15}
	d := now.Delta(prev)
	if want := (Stats{Hits: 30, Misses: 10, Shared: 2, Bypassed: 0, Entries: 15}); d != want {
		t.Errorf("Delta = %+v, want %+v", d, want)
	}
	if got := d.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	if got := (Stats{}).HitRate(); got != 0 {
		t.Errorf("empty HitRate = %v, want 0", got)
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
