package guard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mcpat/internal/power"
)

func TestErrorKindsClassify(t *testing.T) {
	cases := []struct {
		err  error
		kind error
	}{
		{Configf("core[2].ifu.btb", "bad entries %d", -1), ErrConfig},
		{Infeasiblef("l2", "no organization"), ErrInfeasible},
		{Domainf("chip", "NaN area"), ErrModelDomain},
		{Internalf("chip", "boom"), ErrInternal},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.kind) {
			t.Errorf("%v should match kind %v", c.err, c.kind)
		}
		for _, other := range []error{ErrConfig, ErrInfeasible, ErrModelDomain, ErrInternal} {
			if other != c.kind && errors.Is(c.err, other) {
				t.Errorf("%v should not match kind %v", c.err, other)
			}
		}
	}
}

func TestErrorMessageCarriesPathAndDetail(t *testing.T) {
	err := Configf("core[2].ifu.btb", "bad entries %d", -1)
	msg := err.Error()
	for _, want := range []string{"invalid configuration", "core[2].ifu.btb", "bad entries -1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestAtPrependsPathSegments(t *testing.T) {
	err := Configf("btb", "bad")
	err = At(err, "ifu")
	err = At(err, "core[2]")
	if got := PathOf(err); got != "core[2].ifu.btb" {
		t.Fatalf("path = %q, want core[2].ifu.btb", got)
	}
	if !errors.Is(err, ErrConfig) {
		t.Fatal("kind lost while prefixing path")
	}
	if At(nil, "x") != nil {
		t.Fatal("At(nil) must stay nil")
	}
}

func TestWrapPreservesInnerClassification(t *testing.T) {
	inner := Infeasiblef("l2", "no organization")
	wrapped := Wrap(ErrConfig, "chip", inner)
	if !errors.Is(wrapped, ErrInfeasible) {
		t.Fatal("inner kind must win")
	}
	if errors.Is(wrapped, ErrConfig) {
		t.Fatal("outer kind must not override the inner one")
	}
	if got := PathOf(wrapped); got != "chip.l2" {
		t.Fatalf("path = %q, want chip.l2", got)
	}

	plain := Wrap(ErrConfig, "chip", fmt.Errorf("strconv: bad"))
	if !errors.Is(plain, ErrConfig) {
		t.Fatal("plain errors take the supplied kind")
	}
	if Wrap(ErrConfig, "chip", nil) != nil {
		t.Fatal("Wrap(nil) must stay nil")
	}
}

func TestRecoverConvertsPanicToErrInternal(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err, "mcpat.New")
		panic("index out of range [3] with length 2")
	}
	err := f()
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("recovered panic should be ErrInternal, got %v", err)
	}
	if !strings.Contains(err.Error(), "index out of range") {
		t.Errorf("recovered value lost: %v", err)
	}
	if PathOf(err) != "mcpat.New" {
		t.Errorf("path = %q, want mcpat.New", PathOf(err))
	}
}

func TestRecoverNoPanicKeepsError(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err, "x")
		return errors.New("original")
	}
	if err := f(); err == nil || err.Error() != "original" {
		t.Fatalf("Recover must not disturb a normal return, got %v", err)
	}
}

func okTree() *power.Item {
	root := power.NewItem("chip")
	a := &power.Item{Name: "cores", Area: 2, PeakDynamic: 10, SubLeak: 1, GateLeak: 0.5}
	b := &power.Item{Name: "l2", Area: 1, PeakDynamic: 3, SubLeak: 0.5, GateLeak: 0.25}
	root.Add(a, b)
	root.Rollup()
	return root
}

func TestCheckReportAcceptsHealthyTree(t *testing.T) {
	if ds := CheckReport(okTree(), nil); len(ds) != 0 {
		t.Fatalf("healthy tree flagged: %v", ds)
	}
}

// TestCheckReportCleanTreeAllocatesNothing pins that checking a clean
// report builds no path strings: paths are joined only for a finding.
func TestCheckReportCleanTreeAllocatesNothing(t *testing.T) {
	ifu := power.NewItem("IFU").Add(
		&power.Item{Name: "icache", Area: 0.5, PeakDynamic: 2, RuntimeDynamic: 1, SubLeak: 0.25})
	core := &power.Item{Name: "core", Area: 2, PeakDynamic: 10, SubLeak: 1, GateLeak: 0.5}
	core.Add(ifu)
	tree := power.NewItem("chip").Add(core,
		&power.Item{Name: "l2", Area: 1, PeakDynamic: 3, SubLeak: 0.5, GateLeak: 0.25})
	tree.Rollup()
	if ds := CheckReport(tree, nil); len(ds) != 0 {
		t.Fatalf("clean tree flagged: %v", ds)
	}
	if n := testing.AllocsPerRun(100, func() { CheckReport(tree, nil) }); n != 0 {
		t.Errorf("CheckReport on a clean tree: %v allocs, want 0", n)
	}
}

func TestCheckReportFlagsNaNInfNegative(t *testing.T) {
	tree := okTree()
	tree.Children[0].Area = math.NaN()
	tree.Children[1].PeakDynamic = math.Inf(1)
	tree.Children[1].SubLeak = -1
	ds := CheckReport(tree, nil)
	if len(ds) < 3 {
		t.Fatalf("want >=3 diagnostics, got %v", ds)
	}
	var sawNaN, sawInf, sawNeg bool
	for _, d := range ds {
		switch d.Msg {
		case "NaN":
			sawNaN = true
		case "infinite":
			sawInf = true
		case "negative":
			sawNeg = true
		}
	}
	if !sawNaN || !sawInf || !sawNeg {
		t.Fatalf("missing categories in %v", ds)
	}
	if err := ds.Err(); err == nil || !errors.Is(err, ErrModelDomain) {
		t.Fatalf("diagnostics must convert to ErrModelDomain, got %v", err)
	}
}

func TestCheckReportFlagsChildrenExceedingParent(t *testing.T) {
	tree := okTree()
	tree.PeakDynamic = 1 // children sum to 13
	ds := CheckReport(tree, nil)
	found := false
	for _, d := range ds {
		if d.Field == "PeakDynamic" && strings.Contains(d.Msg, "children sum") {
			found = true
		}
	}
	if !found {
		t.Fatalf("children-exceed-parent not flagged: %v", ds)
	}
	// The legitimate direction - parent bigger than children (self
	// contributions, top-level overheads) - must pass.
	tree2 := okTree()
	tree2.Area *= 1.12
	if ds := CheckReport(tree2, nil); len(ds) != 0 {
		t.Fatalf("parent>children wrongly flagged: %v", ds)
	}
}

func TestCheckReportFlagsRuntimeBeyondTDP(t *testing.T) {
	tree := okTree()
	tree.RuntimeDynamic = 1000 // TDP is ~15.25 W
	ds := CheckReport(tree, nil)
	found := false
	for _, d := range ds {
		if d.Field == "Runtime" {
			found = true
		}
	}
	if !found {
		t.Fatalf("runtime >> TDP not flagged: %v", ds)
	}
	// A generous multiplier admits it.
	if ds := CheckReport(tree, &CheckOptions{RuntimeTDPMult: 1000}); len(ds) != 0 {
		t.Fatalf("custom multiplier not honored: %v", ds)
	}
}

func TestCheckReportFlagsExcessLeakSaved(t *testing.T) {
	tree := okTree()
	tree.Children[0].LeakSaved = 5 // leakage there is 1.5 W
	ds := CheckReport(tree, nil)
	found := false
	for _, d := range ds {
		if d.Field == "LeakSaved" && strings.Contains(d.Msg, "exceed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("excess LeakSaved not flagged: %v", ds)
	}
}

func TestCheckReportNil(t *testing.T) {
	if ds := CheckReport(nil, nil); len(ds) != 1 {
		t.Fatalf("nil report must yield one diagnostic, got %v", ds)
	}
}

// TestClassifiedRoundTrip pins the wire form of the taxonomy: every
// kind encodes under its name with the component path and first message
// line, and the decoded value matches the same sentinel again.
func TestClassifiedRoundTrip(t *testing.T) {
	cases := []struct {
		err      error
		kind     string
		sentinel error
	}{
		{Configf("core[2].ifu.btb", "bad entries %d", -1), KindConfig, ErrConfig},
		{Infeasiblef("l2", "no organization"), KindInfeasible, ErrInfeasible},
		{Domainf("chip", "NaN area"), KindModelDomain, ErrModelDomain},
		{At(context.DeadlineExceeded, "dse[2c]"), KindTimeout, context.DeadlineExceeded},
		{fmt.Errorf("sweep: %w", context.Canceled), KindCanceled, context.Canceled},
		{Internalf("core", "recovered panic: boom\nstack"), KindInternal, ErrInternal},
	}
	for _, tc := range cases {
		c := Classify(tc.err)
		if c.Kind != tc.kind || c.Path != PathOf(tc.err) || strings.Contains(c.Message, "\n") {
			t.Errorf("Classify(%q) = %+v, want kind %s, path %q, one line", tc.err, c, tc.kind, PathOf(tc.err))
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Classified
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		wrapped := fmt.Errorf("remote: %w", &back)
		if !errors.Is(wrapped, tc.sentinel) {
			t.Errorf("decoded %s does not match its sentinel", b)
		}
		for _, other := range cases {
			if other.sentinel != tc.sentinel && errors.Is(&back, other.sentinel) {
				t.Errorf("decoded %s also matches %v", b, other.sentinel)
			}
		}
		if again := Classify(&back); *again != *c {
			t.Errorf("re-classifying %s gave %+v", b, again)
		}
		if PathOf(wrapped) != c.Path {
			t.Errorf("PathOf lost the decoded path %q", c.Path)
		}
	}
	if Classify(nil) != nil {
		t.Error("Classify(nil) != nil")
	}
	if c := Classify(errors.New("plain")); c.Kind != KindInternal {
		t.Errorf("unclassified error got kind %q, want internal", c.Kind)
	}
	if errors.Is(&Classified{Kind: "overloaded"}, ErrInternal) {
		t.Error("a transport kind must match no sentinel")
	}
}
