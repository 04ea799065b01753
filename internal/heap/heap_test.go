package heap

import (
	"testing"
	"testing/quick"
)

func TestSizeModelAlign(t *testing.T) {
	m := Model32
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, 8}, {7, 8}, {8, 8}, {9, 16}, {24, 24},
	}
	for _, c := range cases {
		if got := m.AlignUp(c.in); got != c.want {
			t.Errorf("AlignUp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	none := SizeModel{Align: 0}
	if none.AlignUp(13) != 13 {
		t.Errorf("Align<=1 must be identity")
	}
}

// The paper's anchor number: on a 32-bit architecture a hash entry object
// (header plus three pointer fields) consumes 24 bytes (§2.3).
func TestModel32EntryIs24Bytes(t *testing.T) {
	if got := Model32.ObjectFields(3, 0); got != 24 {
		t.Fatalf("32-bit entry object = %d bytes, want 24", got)
	}
}

func TestSizeModelShapes(t *testing.T) {
	m := Model32
	if got := m.PtrArray(0); got != 16 {
		t.Errorf("empty ptr array = %d, want 16 (aligned 12-byte header)", got)
	}
	if got := m.PtrArray(10); got != m.AlignUp(12+40) {
		t.Errorf("PtrArray(10) = %d", got)
	}
	if got := m.IntArray(3); got != m.AlignUp(12+12) {
		t.Errorf("IntArray(3) = %d", got)
	}
	if got := m.Object(0); got != 8 {
		t.Errorf("empty object = %d, want 8", got)
	}
}

func TestSizeModelMonotonic(t *testing.T) {
	f := func(n uint16) bool {
		m := Model64
		a, b := int64(n), int64(n)+1
		return m.PtrArray(a) <= m.PtrArray(b) && m.IntArray(a) <= m.IntArray(b) &&
			m.AlignUp(a) >= a && m.AlignUp(a)%m.Align == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprint(t *testing.T) {
	a := Footprint{Live: 100, Used: 60, Core: 40}
	b := Footprint{Live: 10, Used: 5, Core: 2}
	sum := a.Add(b)
	if sum != (Footprint{110, 65, 42}) {
		t.Fatalf("Add = %+v", sum)
	}
	if a.Overhead() != 40 {
		t.Fatalf("Overhead = %d, want 40", a.Overhead())
	}
}

// fakeColl is a minimal semantic-map implementation for heap tests.
type fakeColl struct {
	f    Footprint
	ctx  uint64
	kind string
}

func (c *fakeColl) HeapFootprint() Footprint { return c.f }
func (c *fakeColl) ContextKey() uint64       { return c.ctx }
func (c *fakeColl) KindName() string         { return c.kind }

func TestHeapRegisterFreeAndGC(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40, KeepSnapshots: true, KeepContexts: true})
	c1 := &fakeColl{f: Footprint{Live: 100, Used: 50, Core: 30}, ctx: 1, kind: "ArrayList"}
	c2 := &fakeColl{f: Footprint{Live: 200, Used: 120, Core: 80}, ctx: 2, kind: "HashMap"}
	t1 := h.Register(c1)
	t2 := h.Register(c2)
	d := h.AllocData(1000)

	h.GC()
	st := h.Stats()
	if st.NumGC != 1 {
		t.Fatalf("NumGC = %d", st.NumGC)
	}
	if st.MaxCollections.Live != 300 || st.MaxCollections.Used != 170 || st.MaxCollections.Core != 110 {
		t.Fatalf("collections = %+v", st.MaxCollections)
	}
	if st.MaxLiveData != 1000+300+h.Model().AlignUp(0) {
		// AllocData aligns 1000 to 1000 (already aligned under Model32).
		t.Fatalf("MaxLiveData = %d", st.MaxLiveData)
	}
	snap := h.Snapshots()[0]
	if snap.CollectionObjects != 2 {
		t.Fatalf("objects = %d", snap.CollectionObjects)
	}
	if snap.TypeDist["HashMap"] != 200 || snap.TypeDist["ArrayList"] != 100 {
		t.Fatalf("typedist = %v", snap.TypeDist)
	}
	if cc := snap.PerContext[2]; cc.Objects != 1 || cc.Footprint.Live != 200 {
		t.Fatalf("per-context = %+v", cc)
	}

	t1.Free()
	t1.Free() // double free is a no-op
	d.Free()
	d.Free()
	h.GC()
	snap2 := h.Snapshots()[1]
	if snap2.Collections.Live != 200 || snap2.LiveData != 200 {
		t.Fatalf("after free: %+v", snap2)
	}
	t2.Free()
	h.GC()
	if h.Snapshots()[2].Collections.Live != 0 {
		t.Fatalf("live after all freed: %+v", h.Snapshots()[2])
	}
}

func TestHeapSwapRemoveKeepsTicketsValid(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40})
	var tickets []*Ticket
	colls := make([]*fakeColl, 10)
	for i := range colls {
		colls[i] = &fakeColl{f: Footprint{Live: int64(8 * (i + 1))}, kind: "X"}
		tickets = append(tickets, h.Register(colls[i]))
	}
	// Free in a scrambled order; the swap-remove must keep slots coherent.
	for _, i := range []int{0, 5, 9, 1, 8, 2, 7, 3, 6, 4} {
		tickets[i].Free()
	}
	if h.LiveCollections() != 0 {
		t.Fatalf("live = %d, want 0", h.LiveCollections())
	}
	if h.LiveBytes() != 0 {
		t.Fatalf("live bytes = %d, want 0", h.LiveBytes())
	}
}

func TestHeapGCTriggerByAllocationVolume(t *testing.T) {
	h := New(Config{GCThreshold: 1000})
	for i := 0; i < 10; i++ {
		d := h.AllocData(500)
		d.Free()
	}
	// 10 * 504 aligned bytes of churn with a 1000-byte threshold: ~5 GCs.
	st := h.Stats()
	if st.NumGC < 4 || st.NumGC > 6 {
		t.Fatalf("NumGC = %d, want about 5", st.NumGC)
	}
	if st.PeakLive > 504 {
		t.Fatalf("peak live = %d: churn must not raise the peak beyond one object", st.PeakLive)
	}
}

func TestHeapPeakAndMinimalHeap(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40})
	d1 := h.AllocData(1 << 12)
	d2 := h.AllocData(1 << 12)
	d1.Free()
	d3 := h.AllocData(1 << 10)
	_ = d2
	_ = d3
	want := int64(2 << 12) // the moment both 4 KiB objects were live
	if h.Stats().PeakLive != want {
		t.Fatalf("peak = %d, want %d", h.Stats().PeakLive, want)
	}
	if h.MinimalHeap() != want {
		t.Fatalf("minimal heap = %d, want %d", h.MinimalHeap(), want)
	}
}

func TestTicketSyncTracksGrowth(t *testing.T) {
	h := New(Config{GCThreshold: 1 << 40})
	c := &fakeColl{f: Footprint{Live: 64, Used: 64, Core: 64}}
	tk := h.Register(c)
	c.f = Footprint{Live: 128, Used: 100, Core: 80}
	tk.Sync(c.f, "")
	if h.LiveBytes() != 128 {
		t.Fatalf("live bytes = %d, want 128", h.LiveBytes())
	}
	h.GC() // cycles aggregate the ticket-cached readings; nothing drifts
	if h.LiveBytes() != 128 {
		t.Fatalf("post-GC live = %d, want 128", h.LiveBytes())
	}
	tk.Free()
	if h.LiveBytes() != 0 {
		t.Fatalf("after free live = %d, want 0", h.LiveBytes())
	}
}

type capturingObserver struct{ cycles []int }

func (o *capturingObserver) ObserveCycle(c *CycleStats) { o.cycles = append(o.cycles, c.Cycle) }

func TestHeapObserver(t *testing.T) {
	obs := &capturingObserver{}
	h := New(Config{GCThreshold: 100, Observer: obs})
	h.AllocData(350)
	if len(obs.cycles) != 3 {
		t.Fatalf("observer saw %d cycles, want 3", len(obs.cycles))
	}
	for i, c := range obs.cycles {
		if c != i+1 {
			t.Fatalf("cycle numbering wrong: %v", obs.cycles)
		}
	}
}

func TestFormatTypeDist(t *testing.T) {
	s := FormatTypeDist(map[string]int64{"A": 10, "B": 30, "C": 10})
	if s != "B=30, A=10, C=10" {
		t.Fatalf("got %q", s)
	}
	if FormatTypeDist(nil) != "" {
		t.Fatalf("empty dist should format to empty string")
	}
}

func TestDefaultConfig(t *testing.T) {
	h := New(Config{})
	if h.Model() != Model32 {
		t.Fatalf("default model should be Model32")
	}
	if h.gcThreshold != 1<<20 {
		t.Fatalf("default threshold = %d", h.gcThreshold)
	}
}
