package guard

import (
	"fmt"
	"math"
	"strings"

	"mcpat/internal/power"
)

// Diagnostic is one sanity-check finding about a report tree.
type Diagnostic struct {
	Path  string  // report-tree path, e.g. "chip.Cores.core.ifu"
	Field string  // offending quantity ("Area", "PeakDynamic", ...)
	Value float64 // the offending value
	Msg   string  // what is wrong with it
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s.%s = %g: %s", d.Path, d.Field, d.Value, d.Msg)
}

// Diagnostics is the typed finding list CheckReport returns.
type Diagnostics []Diagnostic

func (ds Diagnostics) String() string {
	if len(ds) == 0 {
		return "ok"
	}
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.String()
	}
	return strings.Join(parts, "; ")
}

// Err converts a non-empty diagnostic list into an ErrModelDomain; an
// empty list yields nil.
func (ds Diagnostics) Err() error {
	if len(ds) == 0 {
		return nil
	}
	return Domainf("", "%d sanity violations: %s", len(ds), ds.String())
}

// CheckOptions tunes the report sanity pass. The zero value selects the
// defaults documented on each field.
type CheckOptions struct {
	// SumTolerance is the relative slack allowed when comparing the sum
	// of a node's children against the node's own stored total. Parents
	// may legitimately exceed their children (self contributions, area
	// overheads), so only children-exceed-parent is flagged.
	// Default 1e-6.
	SumTolerance float64

	// RuntimeTDPMult bounds root runtime power at this multiple of peak
	// (TDP) power; runtime beyond it means the activity vector or the
	// model left the physical regime. Default 3.
	RuntimeTDPMult float64
}

func (o *CheckOptions) defaults() CheckOptions {
	out := CheckOptions{SumTolerance: 1e-6, RuntimeTDPMult: 3}
	if o != nil {
		if o.SumTolerance > 0 {
			out.SumTolerance = o.SumTolerance
		}
		if o.RuntimeTDPMult > 0 {
			out.RuntimeTDPMult = o.RuntimeTDPMult
		}
	}
	return out
}

// CheckReport verifies that a synthesized chip report is physical: every
// power/area quantity is finite and non-negative, component subtrees sum
// to no more than their parents (within tolerance), power-gating savings
// never exceed the leakage they gate, and runtime power stays within a
// sane multiple of TDP. It returns every violation found rather than
// stopping at the first, so a caller can log the full picture.
func CheckReport(rep *power.Item, opts *CheckOptions) Diagnostics {
	if rep == nil {
		return Diagnostics{{Path: "", Field: "report", Msg: "nil report"}}
	}
	o := opts.defaults()
	var ds Diagnostics
	var names [16]string // the name stack; deeper trees spill to the heap
	checkItem(rep, append(names[:0], rep.Name), o, &ds)

	// Root-level runtime-vs-TDP bound; only meaningful when runtime
	// statistics were applied.
	if rep.RuntimeDynamic > 0 {
		peak := rep.Peak()
		if run := rep.Runtime(); peak > 0 && run > o.RuntimeTDPMult*peak {
			ds = append(ds, Diagnostic{
				Path: rep.Name, Field: "Runtime", Value: run,
				Msg: fmt.Sprintf("runtime power %.3g W exceeds %g x TDP (%.3g W)",
					run, o.RuntimeTDPMult, peak),
			})
		}
	}
	return ds
}

// fieldsOf enumerates the checked quantities of one node.
func fieldsOf(it *power.Item) [6]struct {
	name string
	val  float64
} {
	return [6]struct {
		name string
		val  float64
	}{
		{"Area", it.Area},
		{"PeakDynamic", it.PeakDynamic},
		{"RuntimeDynamic", it.RuntimeDynamic},
		{"SubLeak", it.SubLeak},
		{"GateLeak", it.GateLeak},
		{"LeakSaved", it.LeakSaved},
	}
}

// checkItem checks it and its subtree. names holds the node names from
// the root down to it; the dotted path is joined only for a finding, so
// a clean tree is checked without building any strings.
func checkItem(it *power.Item, names []string, o CheckOptions, ds *Diagnostics) {
	add := func(field string, val float64, msg string) {
		*ds = append(*ds, Diagnostic{Path: strings.Join(names, "."), Field: field, Value: val, Msg: msg})
	}
	for _, f := range fieldsOf(it) {
		switch {
		case math.IsNaN(f.val):
			add(f.name, f.val, "NaN")
		case math.IsInf(f.val, 0):
			add(f.name, f.val, "infinite")
		case f.val < 0:
			add(f.name, f.val, "negative")
		}
	}
	if it.LeakSaved > 0 {
		if leak := it.SubLeak + it.GateLeak; it.LeakSaved > leak*(1+o.SumTolerance) {
			add("LeakSaved", it.LeakSaved,
				fmt.Sprintf("power-gating savings exceed total leakage %.3g W", leak))
		}
	}
	if len(it.Children) > 0 {
		var sums [6]float64
		for _, c := range it.Children {
			for i, f := range fieldsOf(c) {
				sums[i] += f.val
			}
		}
		for i, f := range fieldsOf(it) {
			sum := sums[i]
			if !isFinite(sum) || !isFinite(f.val) {
				continue // the per-node checks above already flagged these
			}
			// Absolute slack keeps near-zero quantities from tripping on
			// float rounding.
			if sum > f.val*(1+o.SumTolerance)+1e-12 {
				add(f.name, f.val, fmt.Sprintf("children sum to %.6g, exceeding the parent total", sum))
			}
		}
	}
	for _, c := range it.Children {
		checkItem(c, append(names, c.Name), o, ds)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
