package alloctx

import (
	"sync"
	"testing"
)

// The context table must intern consistently under concurrent capture: all
// goroutines hitting the same site get the same *Context.
func TestTableConcurrentInterning(t *testing.T) {
	tab := newTable(t)
	const goroutines = 8
	results := make([][]*Context, goroutines)
	var wg sync.WaitGroup
	capture := func() *Context { return tab.CaptureDynamic(0, 2) }
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				results[g] = append(results[g], capture())
				results[g] = append(results[g], tab.Static("conc:static"))
			}
		}()
	}
	wg.Wait()
	static := tab.Static("conc:static")
	for g := range results {
		for i, c := range results[g] {
			if i%2 == 1 && c != static {
				t.Fatalf("static context not canonical")
			}
			if c == nil || c.Key() == 0 {
				t.Fatalf("bad context")
			}
		}
	}
	// Dynamic captures from the same call site must all be identical.
	first := results[0][0]
	for g := range results {
		for i := 0; i < len(results[g]); i += 2 {
			if results[g][i] != first {
				t.Fatalf("dynamic interning not canonical under concurrency")
			}
		}
	}
}

// Four fixed call sites for TestConcurrentFrameMemo.
//
//go:noinline
func concSite0(tab *Table) *Context { return tab.CaptureDynamic(0, 2) }

//go:noinline
func concSite1(tab *Table) *Context { return tab.CaptureDynamic(0, 2) }

//go:noinline
func concSite2(tab *Table) *Context { return tab.CaptureDynamic(0, 3) }

//go:noinline
func concSite3(tab *Table) *Context { return concSite0(tab) }

// TestConcurrentFrameMemo: goroutines that race to memoise and hit the same
// chains must each see one canonical *Context per call site, and the memo
// stays within its bound.
func TestConcurrentFrameMemo(t *testing.T) {
	tab := newTable(t)
	sites := []func(*Table) *Context{concSite0, concSite1, concSite2, concSite3}
	const goroutines = 8
	seen := make([][]*Context, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]*Context, len(sites))
			for i := 0; i < 500; i++ {
				s := (i + g) % len(sites)
				c := sites[s](tab)
				if got[s] == nil {
					got[s] = c
				} else if c != got[s] {
					t.Errorf("site %d resolved to two contexts in one goroutine", s)
					return
				}
			}
			seen[g] = got
		}()
	}
	wg.Wait()
	for s := range sites {
		for g := 1; g < goroutines; g++ {
			if seen[g][s] != seen[0][s] {
				t.Fatalf("site %d: goroutines %d and 0 hold different contexts", s, g)
			}
		}
		for o := 0; o < s; o++ {
			if seen[0][s] == seen[0][o] {
				t.Fatalf("sites %d and %d share a context", o, s)
			}
		}
	}
	if n := ChainCount(tab); n != len(sites) {
		t.Fatalf("chain memo holds %d chains, want %d", n, len(sites))
	}
}
