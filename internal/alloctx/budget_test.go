package alloctx

import (
	"fmt"
	"sync"
	"testing"
)

// TestBudgetDeniesIntoOverflow: past the context budget, fresh captures
// alias to the shared overflow context instead of growing the table; the
// denial counter tracks them and the table stays bounded.
func TestBudgetDeniesIntoOverflow(t *testing.T) {
	tbl := newTable(t)
	tbl.SetMaxContexts(4)

	var admitted []*Context
	for i := 0; i < 4; i++ {
		admitted = append(admitted, tbl.Static(fmt.Sprintf("budget.test:%d", i)))
	}
	over := tbl.Static("budget.test:denied")
	if over != tbl.Overflow() {
		t.Fatalf("capture past the budget = %v, want the overflow context", over)
	}
	if over.String() != OverflowLabel {
		t.Fatalf("overflow label = %q, want %q", over.String(), OverflowLabel)
	}
	for i, c := range admitted {
		if c == over {
			t.Fatalf("admitted context %d aliases overflow", i)
		}
	}
	if n := tbl.Len(); n > tbl.MaxContexts()+1 {
		t.Fatalf("table len = %d, want <= budget+overflow = %d", n, tbl.MaxContexts()+1)
	}
	if d := tbl.OverflowAdmissions(); d != 1 {
		t.Fatalf("denied admissions = %d, want 1", d)
	}
}

// TestBudgetDenialNotMemoized: a denied label must not burn a statics-map
// entry (that would defeat the bound) and must stay denied while full —
// but an already-admitted label keeps resolving to its own context.
func TestBudgetDenialNotMemoized(t *testing.T) {
	tbl := newTable(t)
	tbl.SetMaxContexts(2)
	a := tbl.Static("memo.test:a")
	b := tbl.Static("memo.test:b")
	for i := 0; i < 3; i++ {
		if got := tbl.Static("memo.test:c"); got != tbl.Overflow() {
			t.Fatalf("denied label resolved to %v on attempt %d", got, i)
		}
	}
	if got := tbl.Static("memo.test:a"); got != a {
		t.Fatalf("admitted label lost its context: %v != %v", got, a)
	}
	if got := tbl.Static("memo.test:b"); got != b {
		t.Fatalf("admitted label lost its context: %v != %v", got, b)
	}
	if n := tbl.Len(); n > 3 {
		t.Fatalf("table len = %d after repeated denials, want <= 3", n)
	}
}

// captureBudgeted is one fixed call site for the dynamic budget tests; at
// depth 1 its context does not depend on where it is called from.
//
//go:noinline
func captureBudgeted(tbl *Table) *Context { return tbl.CaptureDynamic(0, 1) }

// TestBudgetDynamicDenialNotMemoized mirrors TestBudgetDenialNotMemoized
// for the chain memo: a stack denied by the budget must not memoise its
// chain to the overflow context, and is admitted — and then memoised — once
// the budget is raised.
func TestBudgetDynamicDenialNotMemoized(t *testing.T) {
	tbl := newTable(t)
	tbl.SetMaxContexts(1)
	pinned := tbl.Static("dyn.memo:pinned")
	for i := 0; i < 3; i++ {
		if got := captureBudgeted(tbl); got != tbl.Overflow() {
			t.Fatalf("denied stack resolved to %v on attempt %d", got, i)
		}
	}
	if n := ChainCount(tbl); n != 0 {
		t.Fatalf("denied stack memoised %d chains", n)
	}
	tbl.SetMaxContexts(0)
	admitted := captureBudgeted(tbl)
	if admitted == tbl.Overflow() || admitted == pinned || admitted.Key() == 0 {
		t.Fatalf("stack not re-admitted after raising the budget: %v", admitted)
	}
	hits := VerifyChains(t, tbl)
	if got := captureBudgeted(tbl); got != admitted || hits.Load() != 1 {
		t.Fatalf("warm admitted capture = %v (memo hits %d), want %v from the memo", got, hits.Load(), admitted)
	}
}

// TestBudgetDynamicCapture: dynamic captures obey the same budget.
func TestBudgetDynamicCapture(t *testing.T) {
	tbl := newTable(t)
	tbl.SetMaxContexts(1)
	tbl.Static("dyn.test:pinned")
	c := tbl.CaptureDynamic(1, 2)
	if c != tbl.Overflow() {
		t.Fatalf("dynamic capture past the budget = %v, want overflow", c)
	}
}

// TestBudgetConcurrentBound hammers a full table from many goroutines: the
// documented Len() <= MaxContexts()+1 must hold exactly, the +1 being the
// budget-exempt overflow context, never a user context.
func TestBudgetConcurrentBound(t *testing.T) {
	tbl := newTable(t)
	tbl.SetMaxContexts(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tbl.Static(fmt.Sprintf("conc.test:%d.%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	// Admission happens in intern, before the label reaches the statics
	// memo: each new context claims a budget slot with a CAS on the
	// table's count before it is stored, so racing first captures cannot
	// overshoot the budget.
	if n := tbl.Len(); n > tbl.MaxContexts()+1 {
		t.Fatalf("concurrent table len = %d, want <= %d", n, tbl.MaxContexts()+1)
	}
	if tbl.OverflowAdmissions() == 0 {
		t.Fatal("no denials recorded under pressure")
	}
}

// TestSamplerSetRate: the sampling rate is adjustable at runtime (the
// governor's sampled tier drives it) and nil/low rates capture everything.
func TestSamplerSetRate(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("rate-1 sampler skipped a capture")
		}
	}
	s.SetRate(4)
	if got := s.Rate(); got != 4 {
		t.Fatalf("rate = %d, want 4", got)
	}
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("rate-4 sampler hit %d of 400, want exactly 100", hits)
	}
	var nilS *Sampler
	if !nilS.Sample() {
		t.Fatal("nil sampler must capture everything")
	}
}
