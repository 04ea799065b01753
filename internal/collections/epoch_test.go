package collections

import (
	"sync"
	"testing"
	"unsafe"

	"chameleon/internal/spec"
)

// The epoch-batched recording contract: a snapshot of a *live* instance may
// lag the owner by at most flushEvery-1 operations, and an epoch boundary
// (the flushEvery-th op) drains everything pending.
func TestFlushBoundedStaleness(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	l := NewArrayList[int](rt, At("epoch:1"))
	key := rt.Contexts().Static("epoch:1").Key()

	for i := 0; i < flushEvery-1; i++ {
		l.Contains(i)
	}
	p := prof.SnapshotContext(key)
	if got := p.OpTotals[spec.Contains]; got != 0 {
		t.Fatalf("pending ops visible before the epoch boundary: %d", got)
	}
	// One more op completes the epoch: everything pending drains.
	l.Contains(0)
	p = prof.SnapshotContext(key)
	if got := p.OpTotals[spec.Contains]; got != flushEvery {
		t.Fatalf("epoch flush drained %d Contains, want %d", got, flushEvery)
	}
	// However many ops run, staleness stays under flushEvery.
	for i := 0; i < 5*flushEvery+7; i++ {
		l.Contains(i)
	}
	total := int64(6*flushEvery + 7)
	p = prof.SnapshotContext(key)
	if got := p.OpTotals[spec.Contains]; got < total-(flushEvery-1) || got > total {
		t.Fatalf("staleness out of bounds: snapshot %d, actual %d", got, total)
	}
	// free() flushes: the folded record is exact.
	l.Free()
	p = prof.SnapshotContext(key)
	if got := p.OpTotals[spec.Contains]; got != total {
		t.Fatalf("post-free snapshot inexact: %d, want %d", got, total)
	}
}

// Every trace statistic — op counts, size stats, empty iterators — is exact
// once the instance dies, even when the op stream never filled an epoch.
func TestFlushOnFreeIsExact(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	l := NewArrayList[int](rt, At("epoch:2"))
	for i := 0; i < 5; i++ {
		l.Add(i)
	}
	_ = l.Iterator() // size 5: not empty
	l.Clear()
	_ = l.Iterator() // size 0: empty
	l.Free()
	p := findByContext(t, prof.Snapshot(), "epoch:2")
	if p.OpTotals[spec.Add] != 5 || p.OpTotals[spec.Iterate] != 2 || p.OpTotals[spec.Clear] != 1 {
		t.Fatalf("op totals add=%d iter=%d clear=%d", p.OpTotals[spec.Add], p.OpTotals[spec.Iterate], p.OpTotals[spec.Clear])
	}
	if p.EmptyIterators != 1 {
		t.Fatalf("empty iterators = %d, want 1", p.EmptyIterators)
	}
	if p.MaxSizeAvg != 5 || p.FinalSizeAvg != 0 {
		t.Fatalf("size stats max=%v final=%v, want 5/0", p.MaxSizeAvg, p.FinalSizeAvg)
	}
}

// Hammers owner-side flushing against concurrent SnapshotContext calls.
// Run under -race this proves the pending counters stay owner-local and
// every shared handoff is synchronized; the final totals check proves no
// batch is lost or double-counted.
func TestConcurrentFlushVsSnapshot(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	// Materialize the context before snapshotting so SnapshotContext never
	// returns nil below.
	warm := NewHashMap[int, int](rt, At("epoch:race"))
	warm.Free()
	key := rt.Contexts().Static("epoch:race").Key()

	const opsPerLife = 3*flushEvery/2 + 3 // straddles an epoch boundary
	var (
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		lives int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := NewHashMap[int, int](rt, At("epoch:race"))
			for k := 0; k < opsPerLife; k++ {
				m.Put(k%17, k)
				m.Get(k % 17)
			}
			m.Free()
			lives++
		}
	}()
	for i := 0; i < 500; i++ {
		p := prof.SnapshotContext(key)
		if p == nil {
			t.Error("context vanished mid-run")
			break
		}
		if p.OpTotals[spec.Put] < 0 || p.OpTotals[spec.GetKey] < 0 {
			t.Errorf("negative op totals: %d/%d", p.OpTotals[spec.Put], p.OpTotals[spec.GetKey])
			break
		}
	}
	close(stop)
	wg.Wait()
	p := prof.SnapshotContext(key)
	if want := lives * opsPerLife; p.OpTotals[spec.Put] != want || p.OpTotals[spec.GetKey] != want {
		t.Fatalf("final totals put=%d get=%d, want %d each", p.OpTotals[spec.Put], p.OpTotals[spec.GetKey], want)
	}
}

// The epoch state lives in the wrapper header, so the header size is part
// of the recording path's cost: growing it measurably slows plain
// scan-heavy paths. Pin the 64-bit sizes.
func TestWrapperHeaderSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("header sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Map[int,int]", unsafe.Sizeof(Map[int, int]{}), 144},
		{"List[int]", unsafe.Sizeof(List[int]{}), 144},
		{"Set[int]", unsafe.Sizeof(Set[int]{}), 152},
	} {
		if c.got != c.want {
			t.Errorf("%s header = %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// A concurrent-native backing records through the shared path (straight to
// the instance atomics), a sequential one through the owner-local epoch
// buffer. Fed the same sequential op stream, both must leave the same
// profile once the instance is freed.
func TestSharedAndOwnerLocalRecordingAgree(t *testing.T) {
	rt, prof, _ := profiledRuntime(t)
	mapStream := func(label string, k spec.Kind) {
		m := NewHashMap[int, int](rt, At(label), Impl(k))
		_ = m.Iterator() // empty
		for i := 0; i < 3*flushEvery; i++ {
			m.Put(i%50, i)
			m.Get(i % 7)
			m.ContainsKey(i)
		}
		for i := 0; i < 20; i++ {
			m.Remove(i)
		}
		_ = m.Iterator()
		m.Clear()
		m.Free()
	}
	listStream := func(label string, k spec.Kind) {
		l := NewArrayList[int](rt, At(label), Impl(k))
		_ = l.Iterator() // empty
		for i := 0; i < 3*flushEvery; i++ {
			l.Add(i)
			l.Get(i / 2)
			l.Contains(i % 9)
		}
		for i := 0; i < 20; i++ {
			l.Remove(i)
		}
		_ = l.Iterator()
		_ = l.ListIterator()
		l.Clear()
		l.Free()
	}
	mapStream("eq:owner-map", spec.KindHashMap)
	mapStream("eq:shared-map", spec.KindShardedHashMap)
	listStream("eq:owner-list", spec.KindArrayList)
	listStream("eq:shared-list", spec.KindCowArrayList)

	snap := prof.Snapshot()
	for _, pair := range [][2]string{{"eq:owner-map", "eq:shared-map"}, {"eq:owner-list", "eq:shared-list"}} {
		owner, shared := findByContext(t, snap, pair[0]), findByContext(t, snap, pair[1])
		if owner.OpTotals != shared.OpTotals {
			t.Errorf("%s vs %s: op totals differ:\n%v\n%v", pair[0], pair[1], owner.OpTotals, shared.OpTotals)
		}
		if owner.MaxSizeMax != shared.MaxSizeMax || owner.FinalSizeAvg != shared.FinalSizeAvg {
			t.Errorf("%s vs %s: sizes differ: max %v/%v final %v/%v", pair[0], pair[1],
				owner.MaxSizeMax, shared.MaxSizeMax, owner.FinalSizeAvg, shared.FinalSizeAvg)
		}
		if owner.EmptyIterators != 1 || shared.EmptyIterators != 1 {
			t.Errorf("%s vs %s: empty iterators %d/%d, want 1/1", pair[0], pair[1], owner.EmptyIterators, shared.EmptyIterators)
		}
		if owner.Impl.Concurrent() || !shared.Impl.Concurrent() {
			t.Errorf("%s vs %s: backings %v/%v, want sequential/concurrent", pair[0], pair[1], owner.Impl, shared.Impl)
		}
	}
}
