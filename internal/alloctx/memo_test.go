package alloctx

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestWarmCaptureAllocatesNothing: once a label or a stack is interned,
// capturing it again must not touch the heap — neither the Static memo hit
// (one atomic load plus one map access) nor the CaptureDynamic hit (return
// addresses walked into a stack buffer, one sync.Map lookup).
func TestWarmCaptureAllocatesNothing(t *testing.T) {
	tab := newTable(t)
	for i := 0; i < 64; i++ {
		tab.Static(fmt.Sprintf("warm.test:%d", i))
	}
	const label = "warm.test:17"
	want := tab.Static(label)
	if n := testing.AllocsPerRun(100, func() {
		if tab.Static(label) != want {
			t.Fatal("warm static hit resolved to another context")
		}
	}); n != 0 {
		t.Errorf("warm Static hit allocates %v times per call, want 0", n)
	}

	// AllocsPerRun's own warm-up call interns the stack; every later call
	// must be an allocation-free hit on that same context. Depth 1 keys
	// the context on this closure alone: AllocsPerRun makes its warm-up
	// and measured calls from different lines.
	var first *Context
	moved := false
	capture := func() {
		c := tab.CaptureDynamic(0, 1)
		if first == nil {
			first = c
		}
		moved = moved || c != first
	}
	if n := testing.AllocsPerRun(100, capture); n != 0 {
		t.Errorf("warm CaptureDynamic hit allocates %v times per call, want 0", n)
	}
	if moved {
		t.Fatal("warm dynamic hit resolved to another context")
	}
	// Those hits came from the chain memo, not from runtime.Callers plus
	// a byKey lookup: the verify hook fires on memo hits only.
	if ChainCount(tab) != 1 {
		t.Fatalf("chain memo holds %d chains, want 1", ChainCount(tab))
	}
	hits := VerifyChains(t, tab)
	testing.AllocsPerRun(1, capture)
	if hits.Load() != 2 || moved {
		t.Fatalf("%d of 2 warm CaptureDynamic calls resolved through the chain memo", hits.Load())
	}
}

// TestStaticMemoLinear enforces the memo's amortised O(1) insertion: a
// stream of distinct labels (contextstorm's never-repeating tail) must
// cost a bounded number of bytes per label. A memo that copies itself on
// every insertion allocates O(n) bytes per label and blows the budget by
// an order of magnitude at this n.
func TestStaticMemoLinear(t *testing.T) {
	const n = 4096
	const perLabel = 4 << 10
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("linear.test:%d", i)
	}
	tab := newTable(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range labels {
		tab.Static(l)
	}
	runtime.ReadMemStats(&after)
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > n*perLabel {
		t.Fatalf("interning %d labels allocated %d B (%d B/label), want <= %d B/label",
			n, got, got/n, perLabel)
	}
}

// TestStaticMemoConcurrentPromotion: writers intern overlapping label sets
// across many dirty→read promotions while readers re-resolve hot labels.
// Every capture of a label must return its one canonical *Context, and the
// table must hold exactly one context per distinct label.
func TestStaticMemoConcurrentPromotion(t *testing.T) {
	const (
		writers = 8
		readers = 4
		span    = 1024 // labels per writer
		stride  = 256  // writer g starts at g*stride, so neighbours overlap
		hot     = 16
	)
	tab := newTable(t)
	hotCtx := make([]*Context, hot)
	for i := range hotCtx {
		hotCtx[i] = tab.Static(fmt.Sprintf("promo.hot:%d", i))
	}

	results := make([][]*Context, writers)
	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	failed := make(chan string, readers)
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				for i, want := range hotCtx {
					if got := tab.Static(fmt.Sprintf("promo.hot:%d", i)); got != want {
						failed <- fmt.Sprintf("hot label %d resolved to %p, want %p", i, got, want)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			for i := 0; i < span; i++ {
				results[g] = append(results[g], tab.Static(fmt.Sprintf("promo.label:%d", g*stride+i)))
			}
		}(g)
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	close(failed)
	for msg := range failed {
		t.Error(msg)
	}

	for g := range results {
		for i, got := range results[g] {
			label := fmt.Sprintf("promo.label:%d", g*stride+i)
			if want := tab.Static(label); got != want || got.String() != label {
				t.Fatalf("writer %d: label %q resolved to %v (%p), canonical %p", g, label, got, got, want)
			}
		}
	}
	distinct := hot + (writers-1)*stride + span
	if tab.Len() != distinct {
		t.Fatalf("Len = %d, want %d distinct labels", tab.Len(), distinct)
	}
}
