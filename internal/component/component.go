// Package component defines the chip-level two-phase component contract
// and the subsystem-level synthesis cache that makes design-space sweeps
// incremental.
//
// McPAT's composability comes from one uniform result shape: every block
// — wire, array, functional unit, core, fabric — reduces to the same
// power/area/timing triple, so a chip is just a tree of such results.
// This package makes the second half of that idea explicit by splitting
// every chip subsystem into two phases:
//
//   - Synthesize: config-dependent and expensive. Geometry, energies and
//     leakage are solved once per distinct configuration (what core.New,
//     cache.New, the interconnect constructors, mc.New and clock.New do).
//     Synthesis results are memoized process-wide (see NewCache), keyed
//     by a canonical config value plus the technology node's fingerprint.
//
//   - Score: cheap and pure. A synthesized component maps an Assignment —
//     the peak (TDP) and runtime activity it is driven with — to a report
//     Item. Scoring never mutates the component, so one synthesized
//     instance may be shared by any number of chips concurrently.
//
// chip.New assembles a processor as a registry of Components paired with
// assignment closures; chip.Report is then a pure Score pass. A DSE sweep
// that varies only one subsystem's knobs re-synthesizes only that
// subsystem — delta re-evaluation falls out of the cache keying rather
// than from any sweep-specific logic.
package component

import (
	"mcpat/internal/memo"
	"mcpat/internal/power"
)

// Kind identifies the subsystem family a synthesized component belongs
// to. The subsystem cache keeps per-kind reuse counters so sweeps can
// report which subsystems were actually re-synthesized.
type Kind uint8

const (
	// KindCore is a processor core model (core.Core).
	KindCore Kind = iota
	// KindCache is a shared cache level (cache.Cache).
	KindCache
	// KindFabric covers on-chip interconnect pieces: routers, links,
	// buses, and crossbars.
	KindFabric
	// KindMC covers the off-chip interfaces: memory controller, NIU,
	// and PCIe.
	KindMC
	// KindClock is the chip-wide clock distribution network.
	KindClock

	numKinds
)

// NumKinds is the number of distinct component kinds tracked by the
// cache counters.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindCache:
		return "cache"
	case KindFabric:
		return "fabric"
	case KindMC:
		return "mc"
	case KindClock:
		return "clock"
	}
	return "unknown"
}

// Assignment is the Score-phase input: the activity a component is
// driven with under TDP and runtime conditions. Which fields a component
// reads is part of its contract; unused fields are ignored.
type Assignment struct {
	// Peak and Run are the TDP and runtime activity vectors for
	// components driven by a single access stream (caches, fabrics,
	// memory and I/O controllers).
	Peak, Run power.Activity

	// AuxPeak and AuxRun carry a second activity stream where one
	// exists (the intra-cluster bus of a clustered mesh fabric).
	AuxPeak, AuxRun power.Activity

	// Vec carries a component-specific activity payload that does not
	// reduce to plain read/write rates — the core's full per-structure
	// activity vector. Components that use Vec document the concrete
	// type they expect.
	Vec any

	// Arena, when non-nil, supplies bump-allocated report Items for the
	// Score pass (the trace engine's per-interval hot path). Items drawn
	// from it are valid only until the arena is reset, so callers that
	// set it own the lifetime of the returned tree. A nil Arena keeps
	// every Score result on the heap; both paths run identical
	// arithmetic, so the reports are bit-identical.
	Arena *power.Arena
}

// Component is a synthesized chip subsystem ready for scoring. Score
// maps an activity assignment to the subsystem's report subtree; it must
// be pure (no mutation of the component, fresh Items every call) so that
// memoized components can be shared across chips and goroutines.
type Component interface {
	Score(a Assignment) *power.Item
}

// Subsystem-level memoized synthesis: the layer above internal/array's
// result cache, on the same internal/memo mechanism. Whole synthesized
// subsystems are cached (a core with its twenty arrays, a banked cache,
// a router), so a DSE candidate that shares a subsystem configuration
// with an earlier candidate skips that synthesis entirely - it does not
// even consult the array cache - and a sweep that varies only NoC
// parameters re-synthesizes fabrics and clocks but never cores or
// caches.
//
// Two things differ from the array tier, both deliberately:
//
//   - Values are shared, not cloned. Synthesized subsystems are
//     immutable after construction (the Score phase is pure), so a hit
//     returns the one instance the real synthesis produced and costs a
//     map lookup however expensive the subsystem was to build.
//
//   - Each subsystem package owns its canonical key type (its
//     normalized Config with Tech and Name cleared, plus the tech.Node
//     value fingerprint), because only it knows which fields its
//     constructor reads. Two configs that can synthesize different
//     results must key differently; Name never keys.
var group = memo.NewGroup(NumKinds)

// NewCache returns a subsystem cache whose counters report under kind.
// Values are shared: callers must treat them as immutable. Call it at
// package initialization; every cache lives for the process.
func NewCache[K comparable, V any](kind Kind) *memo.Cache[K, V] {
	return memo.New[K, V](group, int(kind), nil)
}

// KindStats is the counter snapshot for one component kind. The
// fields mean what they do in memo.Stats.
type KindStats struct {
	Hits, Misses, Shared, Bypassed uint64
}

// CacheStats is a snapshot of the subsystem synthesis-cache counters,
// broken down by component kind.
type CacheStats struct {
	// Kinds holds per-kind counters indexed by Kind.
	Kinds [NumKinds]KindStats
	// Entries is the number of resident cached subsystems (a gauge, not
	// a counter; Delta keeps the newer snapshot's value).
	Entries int
}

// Total sums the per-kind counters; its Entries is s.Entries.
func (s CacheStats) Total() memo.Stats {
	t := memo.Stats{Entries: s.Entries}
	for _, k := range s.Kinds {
		t.Hits += k.Hits
		t.Misses += k.Misses
		t.Shared += k.Shared
		t.Bypassed += k.Bypassed
	}
	return t
}

// HitRate returns the fraction of cache-served syntheses among all
// syntheses that consulted the cache.
func (s CacheStats) HitRate() float64 { return s.Total().HitRate() }

// Delta returns the counter difference s - prev, for reporting one
// sweep's cache behavior. Entries is carried from s unchanged.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	d := CacheStats{Entries: s.Entries}
	for i, k := range s.Kinds {
		p := prev.Kinds[i]
		d.Kinds[i] = KindStats{k.Hits - p.Hits, k.Misses - p.Misses, k.Shared - p.Shared, k.Bypassed - p.Bypassed}
	}
	return d
}

// Stats returns the current global cache counters.
func Stats() CacheStats {
	var s CacheStats
	for i := range s.Kinds {
		t := group.Stats(i)
		s.Kinds[i] = KindStats{t.Hits, t.Misses, t.Shared, t.Bypassed}
		s.Entries += t.Entries
	}
	return s
}

// ResetCache drops every cached subsystem and zeroes the counters.
// Syntheses in flight finish for their own callers but publish nowhere,
// so the first build after a reset synthesizes afresh.
func ResetCache() { group.Reset() }

// SetCacheEnabled turns subsystem-result caching on or off (it is on by
// default) and returns the previous setting. Disabling does not drop
// resident entries; combine with ResetCache for a cold, cache-free run.
func SetCacheEnabled(enabled bool) bool { return group.SetEnabled(enabled) }

// CacheEnabled reports whether synthesized subsystems are being cached.
func CacheEnabled() bool { return group.Enabled() }
