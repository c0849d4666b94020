// Package memo is the process-wide synthesis memo shared by both cache
// tiers of the model: individual array solves (internal/array) and
// whole synthesized subsystems (internal/component). McPAT builds every
// cache, buffer, register file and queue from one array model and
// composes subsystems from those arrays, so both levels re-solve
// byte-identical structures across a sweep; one Cache type memoizes
// either.
//
// A Cache maps a typed, canonical key to the value one synthesis
// produced:
//
//   - Single-flight: concurrent calls with the same key share one
//     synthesis instead of racing N copies.
//   - Only successful syntheses are cached. Errors embed the caller's
//     structure name, which never keys, so a waiter that joined a
//     failing flight re-runs the synthesis itself (counted as Bypassed)
//     to get an error that names its own structure.
//   - A panicking synthesis (contained further up by chip-level
//     recovery) unblocks every waiter and leaves no entry behind.
//   - On a memory miss only the flight owner walks memory -> disk ->
//     synthesize, so the disk tier (internal/persist) is consulted once
//     per key. A disk hydrate populates memory and counts as a miss; the
//     disk tier keeps its own counters.
//   - Node retunes (OverrideVdd, temperature) invalidate naturally:
//     every key embeds the technology node's value fingerprint.
//
// Caches are grouped: a Group is one enable switch, one reset and one
// set of named tiers. Several typed caches may report into one tier
// (the four fabric key types all count under one subsystem kind).
package memo

import (
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"mcpat/internal/persist"
)

// shards bounds lock contention between parallel DSE workers.
const shards = 16

// Stats is a snapshot of one tier's reuse counters.
type Stats struct {
	// Hits counts calls served from the cache (including Shared).
	Hits uint64
	// Misses counts memory-tier misses that populated the cache: real
	// syntheses, plus values hydrated from the disk tier when a
	// persistent cache directory is configured.
	Misses uint64
	// Shared counts hits that joined an in-flight synthesis started by
	// a concurrent caller - the single-flight deduplications.
	Shared uint64
	// Bypassed counts syntheses that ran uncached: caching disabled, or
	// a waiter re-running a synthesis whose shared flight failed.
	Bypassed uint64
	// Entries is the number of resident cached values (a gauge, not a
	// counter; Delta keeps the newer snapshot's value).
	Entries int
}

// HitRate returns the fraction of cache-served calls among all calls
// that consulted the cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Delta returns the counter difference s - prev, for reporting one
// sweep's cache behavior. Entries is carried from s unchanged.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:     s.Hits - prev.Hits,
		Misses:   s.Misses - prev.Misses,
		Shared:   s.Shared - prev.Shared,
		Bypassed: s.Bypassed - prev.Bypassed,
		Entries:  s.Entries,
	}
}

type counters struct {
	hits, misses, shared, bypassed atomic.Uint64
}

// member is the type-erased view a Group keeps of each of its caches.
type member interface {
	tierIndex() int
	entries() int
	reset()
}

// Group ties caches that are enabled, reset and counted together.
type Group struct {
	disabled atomic.Bool
	tiers    []counters

	mu      sync.Mutex
	members []member
}

// NewGroup returns an enabled group with the given number of tiers.
func NewGroup(tiers int) *Group {
	return &Group{tiers: make([]counters, tiers)}
}

// Stats returns the counters of tier i and the resident entries of the
// caches that report into it.
func (g *Group) Stats(i int) Stats {
	c := &g.tiers[i]
	s := Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Shared:   c.shared.Load(),
		Bypassed: c.bypassed.Load(),
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.members {
		if m.tierIndex() == i {
			s.Entries += m.entries()
		}
	}
	return s
}

// Reset drops every cached value and zeroes every counter. Flights in
// progress finish for their own caller and waiters but publish nowhere:
// the first call after a reset synthesizes afresh.
func (g *Group) Reset() {
	g.mu.Lock()
	for _, m := range g.members {
		m.reset()
	}
	g.mu.Unlock()
	for i := range g.tiers {
		c := &g.tiers[i]
		c.hits.Store(0)
		c.misses.Store(0)
		c.shared.Store(0)
		c.bypassed.Store(0)
	}
}

// SetEnabled turns caching on or off (it is on by default) and returns
// the previous setting. Disabling does not drop resident entries;
// combine with Reset for a cold, cache-free run.
func (g *Group) SetEnabled(enabled bool) bool {
	return !g.disabled.Swap(!enabled)
}

// Enabled reports whether the group's caches are consulted.
func (g *Group) Enabled() bool { return !g.disabled.Load() }

// Codec serializes one cache's values for the disk tier.
type Codec[K comparable, V any] struct {
	// NS is the disk namespace, which must embed a format version
	// ("array.v1"): bump it whenever the key or value encoding changes
	// so stale entries strand instead of decoding wrongly.
	NS string
	// Key returns the deterministic byte encoding of a key.
	Key func(K) []byte
	// Encode serializes a synthesized value.
	Encode func(V) ([]byte, error)
	// Decode reverses Encode. A decode failure is treated as a miss
	// (cold synthesis republishes); it must never panic.
	Decode func([]byte) (V, error)
}

type entry[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V             // immutable once done is closed
	err  error
}

type shard[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
}

// Cache memoizes syntheses of V keyed by K. K must canonically identify
// the synthesis inputs: two keys that can synthesize different values
// must differ, and labels that only name a structure must not key.
type Cache[K comparable, V any] struct {
	group  *Group
	tier   int
	clone  func(V) V
	seed   maphash.Seed
	shards [shards]shard[K, V]
}

// New returns a cache reporting into tier of g. A non-nil clone is
// applied to every value handed out, hit or miss, so callers may mutate
// what they receive; with nil, values are shared and callers must treat
// them as immutable.
func New[K comparable, V any](g *Group, tier int, clone func(V) V) *Cache[K, V] {
	c := &Cache[K, V]{group: g, tier: tier, clone: clone, seed: maphash.MakeSeed()}
	g.mu.Lock()
	g.members = append(g.members, c)
	g.mu.Unlock()
	return c
}

func (c *Cache[K, V]) tierIndex() int { return c.tier }

func (c *Cache[K, V]) entries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

func (c *Cache[K, V]) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = nil
		sh.mu.Unlock()
	}
}

func (c *Cache[K, V]) out(v V) V {
	if c.clone != nil {
		return c.clone(v)
	}
	return v
}

// Do returns the memoized result of synth for key, running synth at
// most once per key across the process. codec, when non-nil, adds the
// disk tier for this call; it is per call so Decode may capture caller
// context the serialized form omits.
func (c *Cache[K, V]) Do(key K, codec *Codec[K, V], synth func() (V, error)) (V, error) {
	ctr := &c.group.tiers[c.tier]
	if c.group.disabled.Load() {
		ctr.bypassed.Add(1)
		return synth()
	}
	sh := &c.shards[maphash.Comparable(c.seed, key)%shards]

	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
		default:
			ctr.shared.Add(1)
			<-e.done
		}
		if e.err != nil {
			// The shared flight failed. Re-run locally for an error that
			// names this caller's structure (failures are rare).
			ctr.bypassed.Add(1)
			return synth()
		}
		ctr.hits.Add(1)
		return c.out(e.val), nil
	}
	e := &entry[V]{done: make(chan struct{})}
	if sh.entries == nil {
		sh.entries = make(map[K]*entry[V])
	}
	sh.entries[key] = e
	sh.mu.Unlock()

	// This goroutine owns the flight. The deferred cleanup covers a
	// panicking model: waiters are unblocked and the entry removed so
	// later callers retry rather than deadlock.
	completed := false
	defer func() {
		if !completed {
			sh.fail(key, e, errPanicked)
		}
	}()

	var store *persist.Store
	var kb []byte
	if codec != nil {
		if store = persist.Default(); store != nil {
			kb = codec.Key(key)
			if data, ok := store.Get(codec.NS, kb); ok {
				if v, err := codec.Decode(data); err == nil {
					completed = true
					ctr.misses.Add(1)
					e.val = v
					close(e.done)
					return c.out(v), nil
				}
			}
		}
	}

	v, err := synth()
	completed = true
	if err != nil {
		sh.fail(key, e, err)
		var zero V
		return zero, err
	}
	ctr.misses.Add(1)
	e.val = v
	close(e.done)
	// Publish to the disk tier so future processes warm-start; runs
	// after waiters are released and never fails the caller.
	if store != nil {
		if data, err := codec.Encode(v); err == nil {
			store.Put(codec.NS, kb, data)
		}
	}
	return c.out(v), nil
}

// fail publishes a failed flight: it unblocks the waiters and removes
// the flight's own entry - but only its own, since after a Reset the key
// may belong to a newer flight.
func (sh *shard[K, V]) fail(key K, e *entry[V], err error) {
	e.err = err
	sh.mu.Lock()
	if sh.entries[key] == e {
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
	close(e.done)
}

// errPanicked marks entries whose owning flight unwound via panic.
// Waiters never surface it; they re-synthesize (and re-panic)
// themselves.
var errPanicked = errors.New("memo: shared synthesis panicked")
