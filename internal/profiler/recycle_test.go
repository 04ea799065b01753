package profiler

import (
	"testing"

	"chameleon/internal/alloctx"
	"chameleon/internal/spec"
)

// OnDeath recycles instance records through a pool; a record handed out
// again must carry nothing over from its previous life.
func TestRecycledInstanceStartsClean(t *testing.T) {
	p := New()
	tab := alloctx.NewTable()
	ctx := tab.Static("recycle:1")

	in := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
	in.Record(spec.Put)
	in.NoteSize(7)
	in.NoteEmptyIterator()
	p.OnDeath(in)

	in2 := p.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
	p.OnDeath(in2)

	prof := p.SnapshotContext(ctx.Key())
	if prof.Allocs != 2 {
		t.Fatalf("allocs = %d, want 2", prof.Allocs)
	}
	if prof.OpTotals[spec.Put] != 1 || prof.EmptyIterators != 1 {
		t.Fatalf("recycled record leaked state: put=%d emptyIters=%d", prof.OpTotals[spec.Put], prof.EmptyIterators)
	}
	if prof.MaxSizeMax != 7 || prof.MaxSizeAvg != 3.5 {
		t.Fatalf("size stats polluted: max=%v avg=%v", prof.MaxSizeMax, prof.MaxSizeAvg)
	}
}

// reset visits only the ops in the lifetime mask, so a record touched
// through both recording paths, including an op that only the shared path
// (Record) ever saw, must come back from the pool with every counter zero.
func TestRecycledInstanceResetsEveryCounter(t *testing.T) {
	p := New()
	ctx := alloctx.NewTable().Static("recycle:2")
	in := p.OnAlloc(ctx, spec.KindList, spec.KindArrayList, 16)
	in.Buffer(spec.Add)
	in.Buffer(spec.GetIndex)
	in.BufferSize(5)
	in.BufferEmptyIterator()
	in.FlushPending(5)
	in.Buffer(spec.SetAt) // left pending: the death fold does not see it
	in.BufferSize(6)
	in.Record(spec.GetIndex)
	in.Record(spec.Contains) // shared path only
	in.NoteSize(9)
	in.NoteEmptyIterator()
	in.SampleOwner(1)
	in.SampleOwner(2)
	p.OnDeath(in)

	clean := func(in *Instance) {
		t.Helper()
		for op := range in.ops {
			if n := in.ops[op].Load(); n != 0 {
				t.Errorf("op %s = %d after recycling", spec.Op(op), n)
			}
		}
		if m := in.touched.Load(); m != 0 {
			t.Errorf("touched mask = %#x after recycling", m)
		}
		counters := [...]int64{in.maxSize.Load(), in.finalSize.Load(), in.emptyIters.Load(),
			int64(in.ownerHash.Load()), in.ownerSamples.Load(), in.ownerMoves.Load(), in.initialCap}
		if counters != [len(counters)]int64{} {
			t.Errorf("size/iterator/owner/capacity counters = %v after recycling", counters)
		}
		if in.pend != (pending{}) {
			t.Errorf("pending buffer = %+v after recycling", in.pend)
		}
	}
	clean(in) // what the pool holds
	in2 := p.OnAlloc(ctx, spec.KindList, spec.KindArrayList, 0)
	clean(in2) // what the pool hands out, whichever record it is
	p.OnDeath(in2)

	prof := p.SnapshotContext(ctx.Key())
	if prof.OpTotals[spec.Contains] != 1 || prof.OpTotals[spec.GetIndex] != 2 || prof.OpTotals[spec.SetAt] != 0 {
		t.Fatalf("fold missed touched ops: %s", prof.OpDistribution())
	}
}

// The batched mode (Buffer*, drained by FlushPending — the path owner-local
// wrappers take) must agree with the direct per-op mode.
func TestBatchedRecordingMatchesDirect(t *testing.T) {
	p := New()
	tab := alloctx.NewTable()
	direct := p.OnAlloc(tab.Static("batch:direct"), spec.KindList, spec.KindArrayList, 0)
	batched := p.OnAlloc(tab.Static("batch:flush"), spec.KindList, spec.KindArrayList, 0)

	for i := 0; i < 5; i++ {
		direct.Record(spec.Add)
	}
	direct.NoteSize(3)
	direct.NoteSize(9)
	direct.NoteSize(4)
	direct.NoteEmptyIterator()
	direct.NoteEmptyIterator()

	// Two epochs, as the wrappers flush them: the second epoch's smaller
	// max must not lower the first's.
	for i := 0; i < 3; i++ {
		batched.Buffer(spec.Add)
	}
	batched.BufferSize(3)
	batched.BufferSize(9)
	batched.FlushPending(9)
	batched.Buffer(spec.Add)
	batched.Buffer(spec.Add)
	batched.BufferSize(4)
	batched.BufferEmptyIterator()
	batched.BufferEmptyIterator()
	batched.FlushPending(4)

	p.OnDeath(direct)
	p.OnDeath(batched)
	a := p.SnapshotContext(tab.Static("batch:direct").Key())
	b := p.SnapshotContext(tab.Static("batch:flush").Key())
	if a.OpTotals[spec.Add] != b.OpTotals[spec.Add] {
		t.Fatalf("op totals differ: %d vs %d", a.OpTotals[spec.Add], b.OpTotals[spec.Add])
	}
	if a.MaxSizeAvg != b.MaxSizeAvg || a.FinalSizeAvg != b.FinalSizeAvg {
		t.Fatalf("size stats differ: max %v/%v final %v/%v", a.MaxSizeAvg, b.MaxSizeAvg, a.FinalSizeAvg, b.FinalSizeAvg)
	}
	if a.EmptyIterators != b.EmptyIterators {
		t.Fatalf("empty iterators differ: %d vs %d", a.EmptyIterators, b.EmptyIterators)
	}
}

// Two profilers sharing one context table must not poison each other
// through the per-context scratch cache: the cached ContextInfo carries its
// owning profiler and is revalidated on every hit.
func TestScratchCacheIsPerProfiler(t *testing.T) {
	tab := alloctx.NewTable()
	ctx := tab.Static("shared:1")
	p1, p2 := New(), New()
	for i := 0; i < 3; i++ { // repeat so both hit and miss the cache
		i1 := p1.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
		i2 := p2.OnAlloc(ctx, spec.KindHashMap, spec.KindHashMap, 0)
		p1.OnDeath(i1)
		p2.OnDeath(i2)
	}
	if a := p1.SnapshotContext(ctx.Key()).Allocs; a != 3 {
		t.Fatalf("p1 allocs = %d, want 3", a)
	}
	if a := p2.SnapshotContext(ctx.Key()).Allocs; a != 3 {
		t.Fatalf("p2 allocs = %d, want 3", a)
	}
	if p1.Contexts() != 1 || p2.Contexts() != 1 {
		t.Fatalf("contexts = %d/%d, want 1/1", p1.Contexts(), p2.Contexts())
	}
}
