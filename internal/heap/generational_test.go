package heap

import "testing"

func TestGenerationalMinorMajorCadence(t *testing.T) {
	h := New(Config{GCThreshold: 100, Generational: true, MinorPerMajor: 4})
	// 10 triggers: pattern minor,minor,minor,minor,major repeated.
	h.Allocated(1000)
	st := h.Stats()
	if st.NumGC != 2 {
		t.Fatalf("major GCs = %d, want 2", st.NumGC)
	}
	if st.NumMinorGC != 8 {
		t.Fatalf("minor GCs = %d, want 8", st.NumMinorGC)
	}
}

func TestGenerationalPromotion(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, Generational: true, KeepSnapshots: true})
	c := &fakeColl{f: Footprint{Live: 64, Used: 64, Core: 32}, kind: "X"}
	tk := h.Register(c)
	if tk.region != 0 {
		t.Fatalf("fresh collection should be young")
	}
	h.MinorGC() // age 1
	if tk.region != 0 {
		t.Fatalf("promoted too early")
	}
	h.MinorGC() // age 2: promote
	if tk.region != 1 {
		t.Fatalf("not promoted after %d minor cycles", promoteAge)
	}
	if h.Stats().PromotedBytes != 64 {
		t.Fatalf("promoted bytes = %d", h.Stats().PromotedBytes)
	}
	// Footprint changes are pushed through Sync and reflected immediately
	// in the running estimate; only major cycles record Table 3
	// statistics, and they cover the old region too.
	c.f = Footprint{Live: 128, Used: 128, Core: 64}
	tk.Sync(c.f, "")
	if h.LiveBytes() != 128 {
		t.Fatalf("Sync not reflected: live = %d", h.LiveBytes())
	}
	h.GC()
	snaps := h.Snapshots()
	if last := snaps[len(snaps)-1]; last.Collections.Live != 128 {
		t.Fatalf("major cycle missed the promoted collection: %+v", last.Collections)
	}
	tk.Free()
	if h.LiveCollections() != 0 || h.LiveBytes() != 0 {
		t.Fatalf("free from old region broken")
	}
}

func TestGenerationalFreeFromBothRegions(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, Generational: true})
	var tickets []*Ticket
	colls := make([]*fakeColl, 8)
	for i := range colls {
		colls[i] = &fakeColl{f: Footprint{Live: int64(8 * (i + 1))}, kind: "X"}
		tickets = append(tickets, h.Register(colls[i]))
	}
	// Promote the first half.
	h.MinorGC()
	h.MinorGC()
	// Register fresh young ones.
	for i := 0; i < 4; i++ {
		c := &fakeColl{f: Footprint{Live: 16}, kind: "Y"}
		tickets = append(tickets, h.Register(c))
	}
	// Free everything in a scrambled order across regions.
	for _, i := range []int{0, 11, 5, 8, 3, 10, 1, 9, 7, 2, 6, 4} {
		tickets[i].Free()
	}
	if h.LiveCollections() != 0 || h.LiveBytes() != 0 {
		t.Fatalf("cross-region free leak: %d colls %d bytes", h.LiveCollections(), h.LiveBytes())
	}
}

// The orthogonality property (§4.3.2): major-cycle statistics under the
// generational collector match the non-generational collector's for the
// same live set.
func TestGenerationalStatsMatchFullCollector(t *testing.T) {
	build := func(gen bool) *Heap {
		h := New(Config{GCThreshold: 1 << 40, Generational: gen, KeepSnapshots: true, KeepContexts: true})
		for i := 0; i < 10; i++ {
			h.Register(&fakeColl{f: Footprint{Live: 100, Used: 60, Core: 30}, ctx: 7, kind: "HashMap"})
		}
		if gen {
			h.MinorGC()
			h.MinorGC()
		}
		h.GC()
		return h
	}
	full := build(false).Snapshots()
	gen := build(true).Snapshots()
	f, g := full[len(full)-1], gen[len(gen)-1]
	if f.Collections != g.Collections || f.CollectionObjects != g.CollectionObjects {
		t.Fatalf("major-cycle stats differ: %+v vs %+v", f.Collections, g.Collections)
	}
	if f.PerContext[7] != g.PerContext[7] {
		t.Fatalf("per-context stats differ")
	}
}

func TestSyncKeepsEstimateExact(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, Generational: true})
	c := &fakeColl{f: Footprint{Live: 50}, kind: "X"}
	tk := h.Register(c)
	c.f.Live = 90
	tk.Sync(c.f, "") // owners push semantic-map changes; no GC walk needed
	if h.LiveBytes() != 90 {
		t.Fatalf("Sync did not update the estimate: %d", h.LiveBytes())
	}
	tk.Free()
	if h.LiveBytes() != 0 {
		t.Fatalf("free after Sync leaked: %d", h.LiveBytes())
	}
}

func TestOOMUnderGenerationalMode(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, Generational: true, Limit: 200})
	defer func() {
		r := recover()
		oom, ok := r.(OOMError)
		if !ok {
			t.Fatalf("expected OOMError, got %v", r)
		}
		if oom.Limit != 200 {
			t.Fatalf("oom = %+v", oom)
		}
	}()
	c := &fakeColl{f: Footprint{Live: 64}, kind: "X"}
	tk := h.Register(c)
	c.f.Live = 300
	tk.Sync(c.f, "") // pushes live past the limit
	t.Fatal("no OOM")
}

func TestOOMOnDataAllocation(t *testing.T) {
	h := New(Config{Limit: 100})
	defer func() {
		if _, ok := recover().(OOMError); !ok {
			t.Fatal("expected OOMError")
		}
	}()
	h.AllocData(64)
	h.AllocData(64)
	t.Fatal("no OOM")
}
