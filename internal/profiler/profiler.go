// Package profiler implements Chameleon's semantic collections profiler
// (paper §3.2): per-instance usage records (ObjectContextInfo) that are
// folded, when the instance dies or at snapshot time, into per-allocation-
// context aggregates (ContextInfo) holding the full Table 1 statistics —
// operation-count distributions with averages and standard deviations,
// maximal-size distributions, initial capacities, and the heap statistics
// (live/used/core, object counts) recorded by the collection-aware GC on
// every cycle.
//
// The profiler is safe for concurrent use. The context table is split into
// shards keyed by context hash, so sessions allocating from many goroutines
// contend only when they hit the same shard. Instance counters are atomics:
// the owning goroutine is the only writer, but snapshots may read them while
// operations are in flight, and the race detector demands (correctly) that
// those reads be synchronized.
package profiler

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/governor"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// Instance is the per-collection-object usage record — the paper's
// ObjectContextInfo (§4.2). It is owned by a single collection wrapper and
// recorded into in one of two modes. The direct mode (Record, NoteSize,
// NoteEmptyIterator, SampleOwner) writes the atomic counters and is safe
// from many goroutines at once; wrappers over concurrent-native backings
// use it. The batched mode (the Buffer* methods, drained by FlushPending)
// is owner-only. Snapshot readers may observe the atomics mid-flight.
type Instance struct {
	info *ContextInfo
	ops  [spec.NumOps]atomic.Int64
	// touched is the lifetime mask of the ops this instance used: bit i is
	// set before ops[i] first moves off zero, so fold and reset visit only
	// the set bits. A collection touches a few of the NumOps counters.
	touched    atomic.Uint32
	maxSize    atomic.Int64
	finalSize  atomic.Int64
	emptyIters atomic.Int64
	initialCap int64
	slot       int // index into info.live; guarded by the owning shard's mu
	dead       atomic.Bool

	// Owner-stability trace: SampleOwner folds goroutine-identity hashes
	// into these; ownerMoves counts samples whose identity differed from
	// the previous one. ownerMoves/ownerSamples is the instance's
	// cross-goroutine access fraction. Atomic because shared wrappers
	// sample from many goroutines at once.
	ownerHash    atomic.Uint64
	ownerSamples atomic.Int64
	ownerMoves   atomic.Int64

	// winGen is the evidence-window generation the instance was allocated
	// under (see ContextInfo.win). Written in OnAlloc and read in OnDeath /
	// WindowSnapshot, all under the owning shard's mutex.
	winGen int64

	// pend is the owner-local epoch buffer: the Buffer* methods accumulate
	// plain (non-atomic) counts here and FlushPending drains them into the
	// atomic counters above. Only the owning goroutine ever touches it —
	// snapshot readers fold the atomics only — so buffering an operation
	// costs no synchronization at all.
	pend pending
}

// pending holds per-epoch counts not yet published to snapshot readers.
type pending struct {
	ops       [spec.NumOps]uint8
	mask      uint32 // bit i set iff ops[i] != 0 (NumOps <= 32)
	max       int32  // max size observed this epoch
	empty     uint8  // empty-iterator observations this epoch
	sizeDirty bool   // a mutation moved the size this epoch
}

// Record counts one operation.
func (in *Instance) Record(op spec.Op) {
	if in == nil {
		return
	}
	in.touch(1 << uint(op))
	in.ops[op].Add(1)
}

// touch adds ops to the lifetime mask. The load-guard skips the atomic
// read-modify-write once every bit is already set, which is the common case
// after a collection's first few operations.
func (in *Instance) touch(mask uint32) {
	if in.touched.Load()&mask != mask {
		in.touched.Or(mask)
	}
}

// NoteSize records the collection's size after an operation, maintaining
// the maximal-size and final-size trace statistics. Shared wrappers call it
// from many goroutines at once.
func (in *Instance) NoteSize(n int) {
	if in == nil {
		return
	}
	in.mergeSizes(int64(n), int64(n))
}

// mergeSizes merges size observations into the atomic statistics: max is
// the largest size observed since the previous merge, final the size after
// the latest mutation. It serves both recording modes. The max rises
// through a CAS loop, because on the shared path a plain load-then-store
// would let a smaller concurrent size overwrite a larger one. The
// load-guards skip the (much more expensive) atomic writes when nothing
// moved, which is the common case for overwrites.
func (in *Instance) mergeSizes(max, final int64) {
	for cur := in.maxSize.Load(); max > cur; cur = in.maxSize.Load() {
		if in.maxSize.CompareAndSwap(cur, max) {
			break
		}
	}
	if in.finalSize.Load() != final {
		in.finalSize.Store(final)
	}
}

// NoteEmptyIterator records an iterator created over an empty collection
// (the redundant-iterator rule of Table 2).
func (in *Instance) NoteEmptyIterator() {
	if in == nil {
		return
	}
	in.emptyIters.Add(1)
}

// SampleOwner folds one goroutine-identity observation (gid.Hash) into the
// owner-stability statistic: a sample whose identity differs from the
// previous sample's counts as a cross-goroutine move. The hash is
// approximate (stack growth shows up as a spurious move), so consumers
// treat the resulting fraction as a contention signal, not an exact count.
func (in *Instance) SampleOwner(h uint64) {
	if in == nil {
		return
	}
	if h == 0 {
		h = 1 // reserve 0 for "no sample yet"
	}
	prev := in.ownerHash.Load()
	if prev != h {
		// Benign race on the shared path: concurrent first-samplers may
		// both store; the statistic is a fraction, not an exact ledger.
		in.ownerHash.Store(h)
		if prev != 0 {
			in.ownerMoves.Add(1)
		}
	}
	in.ownerSamples.Add(1)
}

// Buffer counts one operation in the owner-local pending buffer; snapshot
// readers only see it at the next FlushPending. Owner-only, non-atomic.
func (in *Instance) Buffer(op spec.Op) {
	in.pend.ops[op]++
	in.pend.mask |= 1 << uint(op)
}

// BufferSize notes the collection's size after a buffered mutation.
func (in *Instance) BufferSize(n int32) {
	if n > in.pend.max {
		in.pend.max = n
	}
	in.pend.sizeDirty = true
}

// BufferEmptyIterator notes an iterator created over an empty collection.
func (in *Instance) BufferEmptyIterator() {
	in.pend.empty++
}

// FlushPending drains the pending buffer into the atomic counters, making
// everything buffered since the previous flush visible to snapshots. final
// is the collection's current size; it is published only when a buffered
// mutation moved the size.
func (in *Instance) FlushPending(final int64) {
	in.touch(in.pend.mask)
	for m := in.pend.mask; m != 0; m &= m - 1 {
		op := spec.Op(bits.TrailingZeros32(m))
		in.ops[op].Add(int64(in.pend.ops[op]))
		in.pend.ops[op] = 0
	}
	in.pend.mask = 0
	if in.pend.sizeDirty {
		in.mergeSizes(int64(in.pend.max), final)
		in.pend.sizeDirty = false
		in.pend.max = 0
	}
	if in.pend.empty != 0 {
		in.emptyIters.Add(int64(in.pend.empty))
		in.pend.empty = 0
	}
}

// reset zeroes the record for recycling. Only the touched op counters can
// be non-zero; load-guarded stores skip the atomic writes for the other
// counters that are already zero. The dead flag deliberately stays true
// until OnAlloc re-arms the record, so a stale double-OnDeath remains a
// no-op even after the record has been returned to the pool.
func (in *Instance) reset() {
	for m := in.touched.Load(); m != 0; m &= m - 1 {
		in.ops[bits.TrailingZeros32(m)].Store(0)
	}
	in.touched.Store(0)
	if in.maxSize.Load() != 0 {
		in.maxSize.Store(0)
	}
	if in.finalSize.Load() != 0 {
		in.finalSize.Store(0)
	}
	if in.emptyIters.Load() != 0 {
		in.emptyIters.Store(0)
	}
	if in.ownerHash.Load() != 0 {
		in.ownerHash.Store(0)
	}
	if in.ownerSamples.Load() != 0 {
		in.ownerSamples.Store(0)
	}
	if in.ownerMoves.Load() != 0 {
		in.ownerMoves.Store(0)
	}
	in.pend = pending{}
	in.info = nil
	in.initialCap = 0
	in.slot = 0
	in.winGen = 0
}

// ContextInfo aggregates all statistics for one allocation context — the
// paper's ContextInfo object, combining library trace information with the
// heap information the GC records per cycle. It is guarded by the mutex of
// the shard its key hashes to.
type ContextInfo struct {
	key      uint64
	ctx      *alloctx.Context
	owner    *Profiler // validates the alloctx scratch-slot cache
	declared spec.Kind
	impl     spec.Kind

	allocs int64
	deaths int64

	// live holds this context's currently-live instances, so a single-
	// context snapshot folds only them instead of scanning every live
	// instance in the session.
	live []*Instance

	// win, when non-nil, is the open post-decision evidence window: a
	// second, smaller aggregate that only folds instances allocated after
	// OpenWindow (their winGen matches the context's). The online selector
	// uses it to judge a decision on what happened *after* the decision was
	// applied, instead of on the lifetime statistics that justified it.
	// Heap statistics are not windowed — GC cycles observe the whole
	// context — so a window profile carries trace statistics only.
	win    *ContextInfo
	winGen int64

	// Per-instance trace statistics as exact integer moments over the
	// deaths folded instances: sums (Σx), sums of squares (Σx²) where a
	// standard deviation is reported, and the largest maximal size.
	// newProfile derives means and standard deviations from them.
	opTotals     [spec.NumOps]int64
	opSq         [spec.NumOps]stats.SumSq
	maxSizeSum   int64
	maxSizeSq    stats.SumSq
	maxSizeMax   int64
	finalSizeSum int64
	initCapSum   int64
	sizeHist     *stats.Histogram

	emptyIters int64

	// Owner-stability trace aggregates (see Instance.SampleOwner):
	// ownerMoves/ownerSamples over all folded instances is the context's
	// cross-goroutine access fraction.
	ownerSamples int64
	ownerMoves   int64

	// Heap statistics recorded by the collection-aware GC.
	totHeap  heap.Footprint
	maxHeap  heap.Footprint
	totObjs  int64
	maxObjs  int64
	gcCycles int64

	// Context-budget bookkeeping (docs/ROBUSTNESS.md "Budgets"), all
	// guarded by the owning shard's mutex. hot is the second-chance bit:
	// set on every allocation (and heap observation), cleared by the
	// eviction clock's first pass. evicted marks a ContextInfo that has
	// been removed from its shard and folded into the overflow aggregate;
	// the scratch-slot hot path re-checks it under the lock so a stale
	// cache entry can never resurrect an evicted aggregate. isOverflow
	// exempts the overflow aggregate itself from the budget and the clock.
	hot        bool
	evicted    bool
	isOverflow bool
}

// fold adds one instance record to the aggregate. An untouched op
// contributes zero to both of its sums, so only the touched ones are read.
func (ci *ContextInfo) fold(in *Instance) {
	ci.deaths++
	for m := in.touched.Load(); m != 0; m &= m - 1 {
		op := bits.TrailingZeros32(m)
		n := in.ops[op].Load()
		ci.opTotals[op] += n
		ci.opSq[op].Add(uint64(n))
	}
	maxSize := in.maxSize.Load()
	ci.maxSizeSum += maxSize
	ci.maxSizeSq.Add(uint64(maxSize))
	if maxSize > ci.maxSizeMax {
		ci.maxSizeMax = maxSize
	}
	ci.finalSizeSum += in.finalSize.Load()
	ci.initCapSum += in.initialCap
	ci.sizeHist.Add(maxSize)
	ci.emptyIters += in.emptyIters.Load()
	ci.ownerSamples += in.ownerSamples.Load()
	ci.ownerMoves += in.ownerMoves.Load()
}

func (ci *ContextInfo) clone() *ContextInfo {
	cp := *ci
	cp.live = nil
	cp.win = nil // folding into a clone must never reach the shared window
	cp.sizeHist = stats.NewHistogram()
	cp.sizeHist.Merge(ci.sizeHist)
	return &cp
}

// absorb merges every aggregate of src into ci. It is how an evicted cold
// context's statistics survive inside the overflow aggregate: counts and
// integer moments sum exactly, histograms merge bucket-wise,
// and heap totals sum while heap maxima take the component-wise max — so
// session-wide totals stay exact under eviction, only per-context
// attribution coarsens. gcCycles sums too: for the aggregate it counts
// context-cycle observations, not distinct cycles.
func (ci *ContextInfo) absorb(src *ContextInfo) {
	ci.allocs += src.allocs
	ci.deaths += src.deaths
	for op := spec.Op(0); op < spec.NumOps; op++ {
		ci.opTotals[op] += src.opTotals[op]
		ci.opSq[op].Merge(src.opSq[op])
	}
	ci.maxSizeSum += src.maxSizeSum
	ci.maxSizeSq.Merge(src.maxSizeSq)
	if src.maxSizeMax > ci.maxSizeMax {
		ci.maxSizeMax = src.maxSizeMax
	}
	ci.finalSizeSum += src.finalSizeSum
	ci.initCapSum += src.initCapSum
	ci.sizeHist.Merge(src.sizeHist)
	ci.emptyIters += src.emptyIters
	ci.ownerSamples += src.ownerSamples
	ci.ownerMoves += src.ownerMoves
	ci.totHeap = ci.totHeap.Add(src.totHeap)
	if src.maxHeap.Live > ci.maxHeap.Live {
		ci.maxHeap.Live = src.maxHeap.Live
	}
	if src.maxHeap.Used > ci.maxHeap.Used {
		ci.maxHeap.Used = src.maxHeap.Used
	}
	if src.maxHeap.Core > ci.maxHeap.Core {
		ci.maxHeap.Core = src.maxHeap.Core
	}
	ci.totObjs += src.totObjs
	if src.maxObjs > ci.maxObjs {
		ci.maxObjs = src.maxObjs
	}
	ci.gcCycles += src.gcCycles
}

const numShards = 16

// profShard is one slice of the context table.
type profShard struct {
	mu       sync.Mutex
	contexts map[uint64]*ContextInfo
	live     int

	// Second-chance eviction state (active only with a budget installed):
	// order is the insertion-ordered clock ring of budget-counted contexts
	// (the overflow aggregate is exempt and absent), hand the clock
	// position, n == len(order). Insertion order plus hot-bit history make
	// the victim sequence a pure function of the shard's operation stream —
	// eviction is deterministic, like every other profiling side effect.
	order []*ContextInfo
	hand  int
	n     int
}

// Profiler is the semantic collections profiler. It owns the sharded
// per-context table (each context also carrying its live-instance registry)
// and implements heap.Observer so the simulated collector can push per-cycle,
// per-context heap statistics into it (paper §4.3.1).
type Profiler struct {
	shards [numShards]profShard

	// pool recycles Instance records: OnDeath resets a folded record and
	// returns it, OnAlloc re-arms one instead of allocating. This takes the
	// per-collection record allocation off the Go GC entirely on steady
	// alloc/free workloads.
	pool sync.Pool

	// numContexts counts currently-tracked contexts, so Contexts() is one
	// atomic load instead of locking every shard (eviction decrements it).
	numContexts atomic.Int64

	// Context budget (SetBudget): with maxPerShard > 0 each shard keeps at
	// most that many budget-counted contexts, evicting the coldest into
	// the overflow aggregate at overflowKey. Both fields are written once
	// before profiling starts.
	maxPerShard int
	overflowKey uint64
	overflowCtx *alloctx.Context
	evictions   atomic.Int64

	// meter, when set, receives the self-measured cost of snapshot/window
	// folds for the overhead governor.
	meter atomic.Pointer[governor.Meter]
}

// New returns an empty profiler.
func New() *Profiler {
	p := &Profiler{}
	for i := range p.shards {
		p.shards[i].contexts = make(map[uint64]*ContextInfo)
	}
	return p
}

func (p *Profiler) shardFor(key uint64) *profShard {
	return &p.shards[key&(numShards-1)]
}

// SetBudget installs the context budget: the profiler keeps at most
// ~maxContexts ContextInfos (rounded up to shard granularity — the real
// bound is numShards×⌈maxContexts/numShards⌉ plus the overflow aggregate),
// evicting the coldest contexts into the single overflow aggregate keyed
// by the given overflow context (normally alloctx.Table.Overflow()).
// Must be called before profiling starts; maxContexts <= 0 or a nil
// overflow context disables the budget.
func (p *Profiler) SetBudget(maxContexts int, overflow *alloctx.Context) {
	if maxContexts <= 0 || overflow == nil {
		p.maxPerShard = 0
		return
	}
	per := (maxContexts + numShards - 1) / numShards
	p.maxPerShard = per
	p.overflowCtx = overflow
	p.overflowKey = overflow.Key()
}

// SetMeter wires the overhead governor's cost meter into the profiler's
// snapshot/window-fold seams. A nil meter (the default) records nothing.
func (p *Profiler) SetMeter(m *governor.Meter) { p.meter.Store(m) }

// timeFolds starts a window-fold cost measurement; call the returned func
// when the fold completes. Zero-cost (nil func guard aside) when no meter
// is installed.
func (p *Profiler) timeFolds() func() {
	m := p.meter.Load()
	if m == nil {
		return nil
	}
	t0 := time.Now()
	return func() { m.Record(governor.SrcWindowFold, time.Since(t0)) }
}

// contextFor returns the ContextInfo for key, creating it if needed. The
// caller must hold the owning shard's mutex, and must pass any returned
// evicted contexts to foldOverflow after releasing it.
func (p *Profiler) contextFor(sh *profShard, key uint64, ctx *alloctx.Context, declared, impl spec.Kind) (*ContextInfo, []*ContextInfo) {
	var evicted []*ContextInfo
	ci, ok := sh.contexts[key]
	if !ok {
		ci = &ContextInfo{key: key, ctx: ctx, owner: p, declared: declared, impl: impl, sizeHist: stats.NewHistogram()}
		evicted = p.insertLocked(sh, ci)
	}
	ci.impl = impl // reflect the most recent selection (online mode may change it)
	return ci, evicted
}

// insertLocked adds a fresh ContextInfo to the shard, first evicting cold
// contexts if the shard is at budget so the newcomer cannot be its own
// victim. The caller must hold sh.mu and later pass the returned contexts
// to foldOverflow outside the lock.
func (p *Profiler) insertLocked(sh *profShard, ci *ContextInfo) []*ContextInfo {
	var evicted []*ContextInfo
	if p.maxPerShard > 0 && p.overflowKey != 0 && ci.key == p.overflowKey {
		ci.isOverflow = true
	}
	if p.maxPerShard > 0 && !ci.isOverflow {
		for sh.n >= p.maxPerShard {
			v := p.evictOneLocked(sh)
			if v == nil {
				break // nothing cold enough; run over budget rather than lose live state
			}
			evicted = append(evicted, v)
		}
		sh.order = append(sh.order, ci)
		sh.n++
	}
	sh.contexts[ci.key] = ci
	p.numContexts.Add(1)
	return evicted
}

// evictOneLocked runs the second-chance clock over the shard's contexts
// and detaches the first cold victim: not recently used (hot bit already
// cleared by a previous pass), no live instances, no open evidence window.
// Returns nil when two full passes find nothing evictable.
func (p *Profiler) evictOneLocked(sh *profShard) *ContextInfo {
	for scanned, n := 0, len(sh.order); scanned < 2*n; scanned++ {
		if sh.hand >= len(sh.order) {
			sh.hand = 0
		}
		ci := sh.order[sh.hand]
		if ci.hot {
			ci.hot = false
			sh.hand++
			continue
		}
		if len(ci.live) > 0 || ci.win != nil {
			sh.hand++
			continue
		}
		sh.order = append(sh.order[:sh.hand], sh.order[sh.hand+1:]...)
		delete(sh.contexts, ci.key)
		ci.evicted = true
		sh.n--
		p.numContexts.Add(-1)
		p.evictions.Add(1)
		return ci
	}
	return nil
}

// foldOverflow merges evicted contexts into the overflow aggregate. It is
// called with no shard lock held (the victims are exclusively owned once
// marked evicted: the scratch hot path re-checks the evicted flag under
// the shard lock, and map/clock membership is already gone), so locking
// the overflow aggregate's home shard here cannot deadlock.
func (p *Profiler) foldOverflow(evicted []*ContextInfo) {
	if len(evicted) == 0 {
		return
	}
	key := p.overflowKey
	sh := p.shardFor(key)
	sh.mu.Lock()
	ov, ok := sh.contexts[key]
	if !ok {
		ov = &ContextInfo{key: key, ctx: p.overflowCtx, owner: p, declared: evicted[0].declared, impl: evicted[0].impl, sizeHist: stats.NewHistogram(), isOverflow: true}
		p.insertLocked(sh, ov) // exempt from the budget: never evicts
	}
	for _, ci := range evicted {
		ov.absorb(ci)
	}
	sh.mu.Unlock()
}

// Evictions reports how many contexts have been evicted into the overflow
// aggregate since the profiler was created.
func (p *Profiler) Evictions() int64 { return p.evictions.Load() }

// OverflowKey reports the context key of the overflow aggregate (0 when
// no budget is installed).
func (p *Profiler) OverflowKey() uint64 { return p.overflowKey }

// OnAlloc registers a new collection instance allocated at ctx, declared as
// the given kind, and actually implemented by impl with the given initial
// capacity. The returned Instance must be passed to OnDeath when the
// collection becomes unreachable, and must not be used after that.
//
// The hot path is a recycled record plus one shard-lock append: the
// context's ContextInfo is cached in the alloctx.Context scratch slot after
// the first allocation, so repeat allocations from a hot context skip the
// table lookup entirely.
func (p *Profiler) OnAlloc(ctx *alloctx.Context, declared, impl spec.Kind, initialCap int) *Instance {
	key := ctx.Key()
	in, _ := p.pool.Get().(*Instance)
	if in == nil {
		in = &Instance{}
	}
	in.initialCap = int64(initialCap)
	ci, _ := ctx.Scratch().(*ContextInfo)
	hot := ci != nil && ci.owner == p && ci.key == key
	var evicted []*ContextInfo
	sh := p.shardFor(key)
	sh.mu.Lock()
	// The evicted flag is only ever set under this shard's lock, so a
	// cached aggregate that was evicted since the (lock-free) scratch read
	// above is caught here and replaced with a fresh one.
	if hot && !ci.evicted {
		ci.impl = impl
	} else {
		ci, evicted = p.contextFor(sh, key, ctx, declared, impl)
		ctx.SetScratch(ci)
	}
	ci.hot = true
	ci.allocs++
	in.info = ci
	in.slot = len(ci.live)
	in.winGen = ci.winGen
	if ci.win != nil {
		ci.win.allocs++
	}
	in.dead.Store(false)
	ci.live = append(ci.live, in)
	sh.live++
	sh.mu.Unlock()
	p.foldOverflow(evicted)
	return in
}

// OnDeath folds the instance's usage record into its context and recycles
// the record. Calling it twice — even concurrently — is a no-op (mirroring
// finalizers running at most once): the dead flag is claimed with a
// compare-and-swap before any shared state is touched, and stays claimed
// until OnAlloc re-arms the recycled record, so a stale second OnDeath
// after the fold also stays a no-op. The caller must drop every reference
// to the instance once OnDeath returns.
func (p *Profiler) OnDeath(in *Instance) {
	if in == nil || !in.dead.CompareAndSwap(false, true) {
		return
	}
	ci := in.info
	sh := p.shardFor(ci.key)
	sh.mu.Lock()
	last := len(ci.live) - 1
	moved := ci.live[last]
	ci.live[in.slot] = moved
	moved.slot = in.slot
	ci.live[last] = nil
	ci.live = ci.live[:last]
	sh.live--
	ci.fold(in)
	if ci.win != nil && in.winGen == ci.winGen {
		ci.win.fold(in)
	}
	sh.mu.Unlock()
	// The record is no longer reachable from the profiler (snapshots fold
	// only the live list, which it just left under the shard lock), so it
	// can be reset and recycled outside the lock.
	in.reset()
	p.pool.Put(in)
}

// ObserveCycle implements heap.Observer: it records the per-context heap
// footprints of one GC cycle into each context's aggregates (the Total/Max
// heap columns of Table 1).
func (p *Profiler) ObserveCycle(c *heap.CycleStats) {
	var allEvicted []*ContextInfo
	for key, cc := range c.PerContext {
		sh := p.shardFor(key)
		sh.mu.Lock()
		ci, ok := sh.contexts[key]
		if !ok {
			// Heap-tracked collection without trace tracking (e.g. a
			// custom collection profiled only through its semantic map).
			ci = &ContextInfo{key: key, owner: p, sizeHist: stats.NewHistogram()}
			allEvicted = append(allEvicted, p.insertLocked(sh, ci)...)
		}
		ci.hot = true // heap activity counts as recency for the eviction clock
		ci.gcCycles++
		ci.totHeap = ci.totHeap.Add(cc.Footprint)
		if cc.Footprint.Live > ci.maxHeap.Live {
			ci.maxHeap.Live = cc.Footprint.Live
		}
		if cc.Footprint.Used > ci.maxHeap.Used {
			ci.maxHeap.Used = cc.Footprint.Used
		}
		if cc.Footprint.Core > ci.maxHeap.Core {
			ci.maxHeap.Core = cc.Footprint.Core
		}
		ci.totObjs += cc.Objects
		if cc.Objects > ci.maxObjs {
			ci.maxObjs = cc.Objects
		}
		sh.mu.Unlock()
	}
	p.foldOverflow(allEvicted)
}

// LiveInstances reports the number of collections currently tracked.
func (p *Profiler) LiveInstances() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.live
		sh.mu.Unlock()
	}
	return n
}

// Contexts reports the number of currently-tracked allocation contexts in
// one atomic load. Without a budget, contexts are only ever created; with
// one, eviction removes cold contexts, so the count is bounded by
// numShards×⌈maxContexts/numShards⌉ plus the overflow aggregate.
func (p *Profiler) Contexts() int {
	return int(p.numContexts.Load())
}

// Snapshot finalizes a view of every context: live instances are folded
// into copies, so the snapshot reflects complete information (as if the
// program had ended, §3.3.2) without perturbing ongoing profiling. Shards
// are visited one at a time, so concurrent allocation keeps flowing through
// the other shards while each is copied.
func (p *Profiler) Snapshot() []*Profile {
	if done := p.timeFolds(); done != nil {
		defer done()
	}
	var out []*Profile
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, ci := range sh.contexts {
			cp := ci.clone()
			for _, in := range ci.live {
				cp.fold(in)
			}
			out = append(out, newProfile(cp, int64(len(ci.live))))
		}
		sh.mu.Unlock()
	}
	return out
}

// SnapshotContext finalizes a view of a single context by key, folding in
// its live instances, or returns nil when the context is unknown. The
// online selector uses this to decide one context without paying for a
// whole-profiler snapshot on the allocation path: only one shard is locked,
// and only the context's own live instances are folded.
func (p *Profiler) SnapshotContext(key uint64) *Profile {
	if done := p.timeFolds(); done != nil {
		defer done()
	}
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ci, ok := sh.contexts[key]
	if !ok {
		return nil
	}
	cp := ci.clone()
	for _, in := range ci.live {
		cp.fold(in)
	}
	return newProfile(cp, int64(len(ci.live)))
}

// OpenWindow starts (or restarts) a post-decision evidence window for one
// context: from now on, instances allocated at the context fold into a
// second aggregate alongside the lifetime one, so WindowSnapshot can report
// what happened strictly after the window opened. Instances allocated
// before the call never enter the window, even if they die inside it. A
// no-op for unknown contexts.
func (p *Profiler) OpenWindow(key uint64) {
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ci, ok := sh.contexts[key]
	if !ok {
		return
	}
	ci.winGen++
	ci.win = &ContextInfo{
		key:      key,
		ctx:      ci.ctx,
		owner:    p,
		declared: ci.declared,
		impl:     ci.impl,
		sizeHist: stats.NewHistogram(),
	}
}

// CloseWindow discards the context's evidence window, stopping the double
// fold. A no-op when no window is open.
func (p *Profiler) CloseWindow(key uint64) {
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ci, ok := sh.contexts[key]; ok {
		ci.win = nil
		ci.winGen++ // stale in-flight instances never match a future window
	}
}

// WindowSnapshot finalizes a view of the context's open evidence window,
// folding in the window-generation live instances, or returns nil when the
// context is unknown or no window is open. The profile carries trace
// statistics only (heap statistics are per-cycle, whole-context readings
// and stay zero); its Evidence field reports how many instances the window
// has observed, which the selector uses as the judgment threshold.
func (p *Profiler) WindowSnapshot(key uint64) *Profile {
	if done := p.timeFolds(); done != nil {
		defer done()
	}
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ci, ok := sh.contexts[key]
	if !ok || ci.win == nil {
		return nil
	}
	cp := ci.win.clone()
	var live int64
	for _, in := range ci.live {
		if in.winGen == ci.winGen {
			cp.fold(in)
			live++
		}
	}
	return newProfile(cp, live)
}
