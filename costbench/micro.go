package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"chameleon/internal/adaptive"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/heap"
	"chameleon/internal/profiler"
	"chameleon/internal/spec"
)

// microReps is how many timed repetitions each microbenchmark makes; the
// table reports their median.
const microReps = 5

// runMicro times each layer's public entry points in isolation, with keys,
// labels and access patterns drawn from seed. budget is the total time to
// spend; each microbenchmark gets an equal share.
func runMicro(seed uint64, budget time.Duration) map[string][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0x3c6ef372fe94f82b))
	out := map[string][]float64{}
	benches := []struct {
		name string
		op   func(rng *rand.Rand) func(n int)
	}{
		{"alloctx.dynamic_ns", dynamicCapture},
		{"adaptive.select_hit_ns", selectHit},
		{"collections.map_get_ns", func(r *rand.Rand) func(int) { return mapGet(r, collections.Plain()) }},
		{"collections.map_get_profiled_ns", func(r *rand.Rand) func(int) { return mapGet(r, profiledRuntime()) }},
		{"collections.list_churn_ns", func(r *rand.Rand) func(int) { return listChurn(r, collections.Plain()) }},
		{"collections.list_churn_profiled_ns", func(r *rand.Rand) func(int) { return listChurn(r, profiledRuntime()) }},
		{"profiler.alloc_death_ns", allocDeath},
		{"heap.register_free_ns", registerFree},
	}
	share := budget / time.Duration(len(benches)+2) // the label replay takes two shares
	for _, b := range benches {
		out[b.name] = timeOps(b.op(rng), share/microReps)
	}
	for k, v := range staticReplay(rng, share*2) {
		out[k] = v
	}
	return out
}

// timeOps calibrates n so that op(n) takes about per, then reports the
// ns per operation of microReps timed calls.
func timeOps(op func(n int), per time.Duration) []float64 {
	n := 1
	for {
		t0 := time.Now()
		op(n)
		if d := time.Since(t0); d >= per/4 || n >= 1<<30 {
			n = int(float64(n) * float64(per) / float64(max(d, 1)))
			break
		}
		n *= 2
	}
	n = max(n, 1)
	out := make([]float64, microReps)
	for i := range out {
		t0 := time.Now()
		op(n)
		out[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return out
}

// sink keeps microbenchmark results observable.
var sink uint64

// dynamicCapture times CaptureDynamic at depth 2 from two call sites
// visited in a seeded order — the repeat-capture path pmd takes.
func dynamicCapture(rng *rand.Rand) func(int) {
	t := alloctx.NewTable()
	order := make([]bool, 1024)
	for i := range order {
		order[i] = rng.IntN(2) == 0
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if order[i&1023] {
				sink += captureA(t).Key()
			} else {
				sink += captureB(t).Key()
			}
		}
	}
}

//go:noinline
func captureA(t *alloctx.Table) *alloctx.Context { return t.CaptureDynamic(0, 2) }

//go:noinline
func captureB(t *alloctx.Table) *alloctx.Context { return t.CaptureDynamic(0, 2) }

// selectHit times Select on a context the selector has already decided,
// with verification off so that every call takes the lock-free fast path.
func selectHit(rng *rand.Rand) func(int) {
	s := core.NewSession(core.Config{
		Mode:          alloctx.Static,
		Online:        true,
		OnlineOptions: adaptive.Options{MinEvidence: 4, VerifyEvery: -1},
		GCThreshold:   gcThreshold,
		DropSnapshots: true,
	})
	const label = "costbench.selectHit:1"
	keys := make([]int, 1024)
	for i := range keys {
		keys[i] = rng.IntN(1 << 20)
	}
	for i := 0; i < 64; i++ { // small get-dominated maps: the tvla ArrayMap rule fires
		m := collections.NewHashMap[int, int](s.Runtime(), collections.At(label))
		for j := 0; j < 4; j++ {
			m.Put(keys[j], j)
		}
		for j := 0; j < 32; j++ {
			_, _ = m.Get(keys[j&3])
		}
		m.Free()
	}
	key := s.Contexts.Static(label).Key()
	def := collections.Decision{Impl: spec.KindHashMap}
	return func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(s.Selector.Select(key, spec.KindHashMap, def).Capacity)
		}
	}
}

// profiledRuntime is a runtime with static capture, profiler and heap:
// the per-operation recording path.
func profiledRuntime() *collections.Runtime {
	prof := profiler.New()
	h := heap.New(heap.Config{GCThreshold: 1 << 30, Observer: prof})
	return collections.NewRuntime(collections.Config{Mode: alloctx.Static, Contexts: alloctx.NewTable(), Profiler: prof, Heap: h})
}

// mapGet times Get on a 14-entry HashMap (tvla-shaped) with seeded keys.
func mapGet(rng *rand.Rand, rt *collections.Runtime) func(int) {
	const size = 14
	m := collections.NewHashMap[int, int](rt, collections.At("costbench.mapGet:1"))
	keys := make([]int, size)
	for i := range keys {
		keys[i] = rng.IntN(1 << 30)
		m.Put(keys[i], i)
	}
	order := make([]int, 1024)
	for i := range order {
		order[i] = keys[rng.IntN(size)]
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			v, _ := m.Get(order[i&1023])
			sink += uint64(v)
		}
	}
}

// listChurn times allocating and freeing capacity-32 lists of which one in
// eight receives a few elements (pmd-shaped).
func listChurn(rng *rand.Rand, rt *collections.Runtime) func(int) {
	fill := make([]int, 1024)
	for i := range fill {
		if rng.IntN(8) == 0 {
			fill[i] = 1 + rng.IntN(3)
		}
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			l := collections.NewArrayList[int](rt, collections.At("costbench.listChurn:1"), collections.Cap(32))
			for j := 0; j < fill[i&1023]; j++ {
				l.Add(j)
			}
			sink += uint64(l.Size())
			l.Free()
		}
	}
}

// allocDeath times one profiler instance record's life: OnAlloc then
// OnDeath on one context.
func allocDeath(*rand.Rand) func(int) {
	prof := profiler.New()
	ctx := alloctx.NewTable().Static("costbench.allocDeath:1")
	return func(n int) {
		for i := 0; i < n; i++ {
			in := prof.OnAlloc(ctx, spec.KindArrayList, spec.KindArrayList, 32)
			prof.OnDeath(in)
		}
	}
}

// fakeCollection is the smallest heap.Collection.
type fakeCollection struct{}

func (fakeCollection) HeapFootprint() heap.Footprint {
	return heap.Footprint{Live: 64, Used: 16, Core: 8}
}
func (fakeCollection) ContextKey() uint64 { return 1 }
func (fakeCollection) KindName() string   { return "ArrayList" }

// registerFree times one heap ticket's life, registered in place the way
// the collection wrappers do it.
func registerFree(*rand.Rand) func(int) {
	h := heap.New(heap.Config{GCThreshold: 1 << 40})
	var t heap.Ticket
	c := fakeCollection{}
	return func(n int) {
		for i := 0; i < n; i++ {
			h.RegisterInto(c, &t)
			t.Free()
		}
	}
}

// stormLabels draws n contextstorm-shaped labels: 60% from 16 hot
// contexts, 25% from 256 warm ones, 15% a never-repeating cold label.
func stormLabels(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		switch d := rng.IntN(100); {
		case d < 60:
			out[i] = fmt.Sprintf("storm.Hot.handle%02d:10;storm.Dispatch.run:31", rng.IntN(16))
		case d < 85:
			out[i] = fmt.Sprintf("storm.Warm.visit%03d:22;storm.Dispatch.run:31", rng.IntN(256))
		default:
			out[i] = fmt.Sprintf("storm.Gen.alloc%d:7;storm.Dispatch.run:31", i)
		}
	}
	return out
}

// stormLabelCount is how many labels the replay feeds a fresh table:
// about 1,500 distinct, so that an insert cost growing with the table
// shows in the tail.
const stormLabelCount = 8192

// staticReplay replays storm labels into a fresh alloctx.Table. Each first
// sighting (a miss, which interns) is timed on its own; misses in the last
// tenth of the sequence form the tail. The hit cost is the whole sequence
// replayed again on the filled table, timed in bulk.
func staticReplay(rng *rand.Rand, budget time.Duration) map[string][]float64 {
	labels := stormLabels(rng, stormLabelCount)
	first := make([]bool, len(labels))
	seen := map[string]bool{}
	for i, l := range labels {
		first[i] = !seen[l]
		seen[l] = true
	}
	tailFrom := len(labels) * 9 / 10
	out := map[string][]float64{}
	deadline := time.Now().Add(budget)
	for rep := 0; rep < microReps && (rep < 1 || time.Now().Before(deadline)); rep++ {
		t := alloctx.NewTable()
		var miss, tail time.Duration
		var nMiss, nTail int
		for i, l := range labels {
			if !first[i] {
				sink += t.Static(l).Key()
				continue
			}
			t0 := time.Now()
			c := t.Static(l)
			d := time.Since(t0)
			sink += c.Key()
			miss += d
			nMiss++
			if i >= tailFrom {
				tail += d
				nTail++
			}
		}
		t0 := time.Now()
		for _, l := range labels {
			sink += t.Static(l).Key()
		}
		hit := time.Since(t0)
		out["alloctx.static_hit_ns"] = append(out["alloctx.static_hit_ns"], float64(hit.Nanoseconds())/float64(len(labels)))
		out["alloctx.static_miss_ns"] = append(out["alloctx.static_miss_ns"], float64(miss.Nanoseconds())/float64(nMiss))
		out["alloctx.static_miss_tail_ns"] = append(out["alloctx.static_miss_tail_ns"], float64(tail.Nanoseconds())/float64(max(nTail, 1)))
	}
	return out
}
