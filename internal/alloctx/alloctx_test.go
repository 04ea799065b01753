package alloctx

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStaticInterning(t *testing.T) {
	tab := newTable(t)
	a := tab.Static("tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50")
	b := tab.Static("tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50")
	c := tab.Static("other:1")
	if a != b {
		t.Fatalf("same label must intern to the same *Context")
	}
	if a == c || a.Key() == c.Key() {
		t.Fatalf("different labels must differ")
	}
	if a.Key() == 0 {
		t.Fatalf("key 0 is reserved for no-context")
	}
	if a.String() != "tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50" {
		t.Fatalf("String = %q", a.String())
	}
	if tab.Lookup(a.Key()) != a {
		t.Fatalf("Lookup did not find interned context")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

func TestNilContext(t *testing.T) {
	var c *Context
	if c.Key() != 0 {
		t.Fatalf("nil key = %d", c.Key())
	}
	if c.String() != "<none>" {
		t.Fatalf("nil string = %q", c.String())
	}
	if c.Frames() != nil {
		t.Fatalf("nil frames should be nil")
	}
}

// Two helpers so the dynamic capture sees distinct call sites at a
// controlled depth.
func captureFromA(tab *Table) *Context { return tab.CaptureDynamic(0, 2) }
func captureFromB(tab *Table) *Context { return tab.CaptureDynamic(0, 2) }

func TestDynamicCaptureDistinguishesSites(t *testing.T) {
	tab := newTable(t)
	var caps []*Context
	for i := 0; i < 2; i++ {
		caps = append(caps, captureFromA(tab)) // same call site both times
	}
	a1, a2 := caps[0], caps[1]
	b := captureFromB(tab)
	if a1 != a2 {
		t.Fatalf("same call site must intern identically")
	}
	if a1 == b {
		t.Fatalf("distinct call sites must intern differently")
	}
	if len(a1.Frames()) == 0 || len(a1.Frames()) > 2 {
		t.Fatalf("partial context depth wrong: %d frames", len(a1.Frames()))
	}
	if !strings.Contains(a1.String(), "captureFromA") {
		t.Fatalf("frames not symbolized: %q", a1.String())
	}
	if !strings.Contains(a1.String(), ";") && len(a1.Frames()) == 2 {
		t.Fatalf("multi-frame context should join with ';': %q", a1.String())
	}
}

func TestDynamicCaptureDepth(t *testing.T) {
	tab := newTable(t)
	deep := func() *Context { return tab.CaptureDynamic(0, 3) }
	c := deep()
	if len(c.Frames()) != 3 {
		t.Fatalf("depth-3 capture got %d frames", len(c.Frames()))
	}
	// Depth defaulting.
	d := tab.CaptureDynamic(0, 0)
	if len(d.Frames()) != 2 {
		t.Fatalf("default depth should be 2, got %d", len(d.Frames()))
	}
}

func TestHashPCsNeverZero(t *testing.T) {
	f := func(pcs []uint32) bool {
		in := make([]uintptr, len(pcs))
		for i, p := range pcs {
			in[i] = uintptr(p)
		}
		return hashPCs(in) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if hashString("") == 0 {
		t.Fatal("hashString must never return 0")
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(3)
	var hits int
	for i := 0; i < 9; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("1-in-3 sampler hit %d of 9", hits)
	}
	always := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !always.Sample() {
			t.Fatalf("rate<=1 must always sample")
		}
	}
	var nilSampler *Sampler
	if !nilSampler.Sample() {
		t.Fatalf("nil sampler must always sample")
	}
	var zero Sampler
	if !zero.Sample() {
		t.Fatalf("zero sampler must always sample")
	}
}

func TestModeString(t *testing.T) {
	if Off.String() != "off" || Static.String() != "static" || Dynamic.String() != "dynamic" {
		t.Fatalf("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatalf("unknown mode formatting wrong")
	}
}

func TestTrimFunc(t *testing.T) {
	if got := trimFunc("chameleon/internal/workloads.(*TVLA).step"); got != "workloads.(*TVLA).step" {
		t.Fatalf("trimFunc = %q", got)
	}
	if got := trimFunc("main.main"); got != "main.main" {
		t.Fatalf("trimFunc = %q", got)
	}
}

// Static context keys must be stable across independent tables: the
// tool-applied plan workflow stores decisions keyed by context from one
// run and applies them in a fresh run with a fresh table.
func TestStaticKeysStableAcrossTables(t *testing.T) {
	a := NewTable().Static("pkg.Fn:12;pkg.Caller:9")
	b := NewTable().Static("pkg.Fn:12;pkg.Caller:9")
	if a.Key() != b.Key() {
		t.Fatalf("keys differ across tables: %d vs %d", a.Key(), b.Key())
	}
	c := NewTable().Static("pkg.Fn:13;pkg.Caller:9")
	if a.Key() == c.Key() {
		t.Fatalf("distinct labels collided")
	}
}
