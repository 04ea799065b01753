package profiler

import (
	"sync"
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// The profiler must tolerate concurrent allocation/death from multiple
// goroutines (workloads are single-threaded, but the tool itself should
// run under concurrent clients; the paper's JVM certainly does).
func TestProfilerConcurrentAllocDeath(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := tab.Static("conc:site")
			_ = g
			for i := 0; i < perG; i++ {
				in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 16)
				in.Record(spec.Put)
				in.NoteSize(1)
				p.OnDeath(in)
			}
		}()
	}
	wg.Wait()
	profiles := p.Snapshot()
	if len(profiles) != 1 {
		t.Fatalf("contexts = %d", len(profiles))
	}
	pr := profiles[0]
	if pr.Allocs != goroutines*perG {
		t.Fatalf("allocs = %d, want %d", pr.Allocs, goroutines*perG)
	}
	if pr.OpTotals[spec.Put] != goroutines*perG {
		t.Fatalf("puts = %d", pr.OpTotals[spec.Put])
	}
	if p.LiveInstances() != 0 {
		t.Fatalf("live = %d", p.LiveInstances())
	}
}

// Snapshots taken while other goroutines allocate must be internally
// consistent (no partial folds, no panics).
func TestProfilerSnapshotUnderConcurrency(t *testing.T) {
	tab := alloctx.NewTable()
	p := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := tab.Static("conc:snap")
		for {
			select {
			case <-stop:
				return
			default:
			}
			in := p.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 4)
			in.Record(spec.Add)
			in.NoteSize(1)
			p.OnDeath(in)
		}
	}()
	for i := 0; i < 50; i++ {
		for _, pr := range p.Snapshot() {
			// Internal consistency: deaths folded exactly once means the
			// add total equals the number of folded instances.
			if pr.OpTotals[spec.Add] != pr.Allocs {
				// A live instance may have been folded before its op was
				// recorded; allow off-by-live but never more.
				diff := pr.Allocs - pr.OpTotals[spec.Add]
				if diff < 0 || diff > 1 {
					t.Fatalf("inconsistent snapshot: allocs=%d adds=%d", pr.Allocs, pr.OpTotals[spec.Add])
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// Shared wrappers (concurrent-native backings) call NoteSize from many
// goroutines at once, so raising the maximal size must be atomic: a
// smaller concurrent size may never overwrite a larger one.
func TestConcurrentNoteSizeKeepsMax(t *testing.T) {
	const goroutines = 8
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for r := 0; r < rounds; r++ {
		in := new(Instance)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 1; g <= goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				in.NoteSize(g)
			}()
		}
		close(start)
		wg.Wait()
		if got := in.maxSize.Load(); got != goroutines {
			t.Fatalf("round %d: max size = %d, want %d", r, got, goroutines)
		}
	}
}
