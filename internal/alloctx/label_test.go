package alloctx

import (
	"strings"
	"testing"
)

// TestStaticKeyMatchesInterning is the contract the static analyzer
// depends on: the key it computes for a label offline is the key the
// runtime interns for the same label.
func TestStaticKeyMatchesInterning(t *testing.T) {
	labels := []string{
		"pkg.Func:12",
		"tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50",
		OverflowLabel,
		"",
		"weird:label;with;semis:1",
	}
	tab := newTable(t)
	for _, l := range labels {
		if got, want := tab.Static(l).Key(), StaticKey(l); got != want {
			t.Errorf("Static(%q).Key() = %#x, StaticKey = %#x", l, got, want)
		}
	}
}

func TestStaticKeyMatchesOverflow(t *testing.T) {
	tab := newTable(t)
	if got, want := tab.Overflow().Key(), StaticKey(OverflowLabel); got != want {
		t.Errorf("Overflow().Key() = %#x, StaticKey(OverflowLabel) = %#x", got, want)
	}
}

func TestSiteLabel(t *testing.T) {
	cases := []struct {
		fn   string
		line int
		want string
	}{
		{"chameleon/internal/workloads.(*TVLA).step", 44, "workloads.(*TVLA).step:44"},
		{"main.main", 10, "main.main:10"},
		{"workloads.run", 7, "workloads.run:7"}, // already trimmed: idempotent
	}
	for _, c := range cases {
		if got := SiteLabel(c.fn, c.line); got != c.want {
			t.Errorf("SiteLabel(%q, %d) = %q, want %q", c.fn, c.line, got, c.want)
		}
	}
}

func TestJoinAndFirstFrame(t *testing.T) {
	joined := JoinFrames("a.b:1", "c.d:2")
	if joined != "a.b:1;c.d:2" {
		t.Fatalf("JoinFrames = %q", joined)
	}
	if got := FirstFrame(joined); got != "a.b:1" {
		t.Errorf("FirstFrame(%q) = %q", joined, got)
	}
	if got := FirstFrame("solo:3"); got != "solo:3" {
		t.Errorf("FirstFrame(solo) = %q", got)
	}
}

// TestDynamicStringUsesSiteLabels asserts dynamic capture renders its
// context through the same per-frame derivation the analyzer uses: every
// rendered frame is SiteLabel(frame.Function, frame.Line).
func TestDynamicStringUsesSiteLabels(t *testing.T) {
	tab := newTable(t)
	ctx := tab.CaptureDynamic(0, 2)
	frames := ctx.Frames()
	if len(frames) == 0 {
		t.Fatal("no frames captured")
	}
	parts := make([]string, len(frames))
	for i, f := range frames {
		parts[i] = SiteLabel(f.Function, f.Line)
	}
	if got, want := ctx.String(), JoinFrames(parts...); got != want {
		t.Errorf("ctx.String() = %q, derived = %q", got, want)
	}
	if !strings.Contains(ctx.String(), "alloctx.TestDynamicStringUsesSiteLabels:") {
		t.Errorf("innermost frame should be this test: %q", ctx.String())
	}
}
