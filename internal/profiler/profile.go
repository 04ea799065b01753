package profiler

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"chameleon/internal/alloctx"
	"chameleon/internal/heap"
	"chameleon/internal/spec"
	"chameleon/internal/stats"
)

// Profile is the finalized, read-only per-context view consumed by the rule
// engine and the reports. All Table 1 statistics are exposed either as
// fields or through the Metric/OpMean/OpStdDev vocabulary of the rule
// language (Fig. 4).
type Profile struct {
	Context  *alloctx.Context
	Declared spec.Kind
	Impl     spec.Kind

	// Allocs is the number of collections allocated at this context; Live
	// is how many were still reachable at snapshot time.
	Allocs int64
	Live   int64
	// Evidence is the number of instance records folded into this profile
	// (completed instances plus live ones folded at snapshot time) — the
	// sample size behind the per-instance statistics. The guarded online
	// selector refuses to judge a decision below a minimum Evidence.
	Evidence int64

	// OpTotals is the total number of times each operation was performed
	// across all instances of the context.
	OpTotals [spec.NumOps]int64
	// OpMean and OpStdDev are the per-instance average operation counts
	// and their standard deviations (Table 1 "Avg/Var operation count").
	OpMean   [spec.NumOps]float64
	OpStdDev [spec.NumOps]float64

	// MaxSizeAvg/StdDev/Max summarize the per-instance maximal sizes
	// (Table 1 "Avg/Var of maximal size").
	MaxSizeAvg    float64
	MaxSizeStdDev float64
	MaxSizeMax    float64
	// FinalSizeAvg is the average size at death.
	FinalSizeAvg float64
	// InitialCapAvg is the average requested initial capacity.
	InitialCapAvg float64
	// SizeHist is the distribution of per-instance maximal sizes.
	SizeHist *stats.Histogram

	// EmptyIterators counts iterators created over empty collections.
	EmptyIterators int64

	// OwnerSamples/OwnerMoves aggregate the owner-stability trace: samples
	// of the accessing goroutine's identity hash, and how many of them
	// differed from the previous sample. Their ratio is the context's
	// cross-goroutine access fraction — the contention signal behind the
	// concurrent-backing rules.
	OwnerSamples int64
	OwnerMoves   int64

	// Heap statistics recorded by the collection-aware GC: totals are
	// summed over GC cycles, maxima are per-cycle peaks.
	TotHeap  heap.Footprint
	MaxHeap  heap.Footprint
	TotObjs  int64
	MaxObjs  int64
	GCCycles int64
}

// newProfile derives the per-instance means and standard deviations from
// the aggregate's integer moments over its ci.deaths folded instances.
func newProfile(ci *ContextInfo, live int64) *Profile {
	n := float64(ci.deaths)
	p := &Profile{
		Context:        ci.ctx,
		Declared:       ci.declared,
		Impl:           ci.impl,
		Allocs:         ci.allocs,
		Live:           live,
		Evidence:       ci.deaths,
		MaxSizeAvg:     stats.Ratio(float64(ci.maxSizeSum), n),
		MaxSizeStdDev:  stats.StdDevOf(ci.deaths, ci.maxSizeSum, ci.maxSizeSq),
		MaxSizeMax:     float64(ci.maxSizeMax),
		FinalSizeAvg:   stats.Ratio(float64(ci.finalSizeSum), n),
		InitialCapAvg:  stats.Ratio(float64(ci.initCapSum), n),
		SizeHist:       ci.sizeHist,
		EmptyIterators: ci.emptyIters,
		OwnerSamples:   ci.ownerSamples,
		OwnerMoves:     ci.ownerMoves,
		TotHeap:        ci.totHeap,
		MaxHeap:        ci.maxHeap,
		TotObjs:        ci.totObjs,
		MaxObjs:        ci.maxObjs,
		GCCycles:       ci.gcCycles,
	}
	for op := spec.Op(0); op < spec.NumOps; op++ {
		p.OpTotals[op] = ci.opTotals[op]
		p.OpMean[op] = stats.Ratio(float64(ci.opTotals[op]), n)
		p.OpStdDev[op] = stats.StdDevOf(ci.deaths, ci.opTotals[op], ci.opSq[op])
	}
	return p
}

// AllOpsMean reports the per-instance average of #allOps.
func (p *Profile) AllOpsMean() float64 {
	var sum float64
	for op := spec.Op(0); op < spec.NumOps; op++ {
		sum += p.OpMean[op]
	}
	return sum
}

// AllOpsTotal reports the total of all operation counters.
func (p *Profile) AllOpsTotal() int64 { return spec.AllOps(&p.OpTotals) }

// Potential reports the context's space-saving potential in bytes: the gap
// between the peak live bytes of its collections and the peak used bytes
// (the paper's totLive - totUsed guidance, using per-cycle maxima so that
// short-lived contexts do not dominate long runs).
func (p *Profile) Potential() int64 { return p.MaxHeap.Overhead() }

// OpMeanByName resolves a "#name" reference from the rule language to the
// per-instance average count.
func (p *Profile) OpMeanByName(name string) (float64, bool) {
	if name == "allOps" {
		return p.AllOpsMean(), true
	}
	op, ok := spec.OpByName(name)
	if !ok {
		return 0, false
	}
	return p.OpMean[op], true
}

// OpStdDevByName resolves a "@name" reference from the rule language to
// the per-instance standard deviation of the count.
func (p *Profile) OpStdDevByName(name string) (float64, bool) {
	op, ok := spec.OpByName(name)
	if !ok {
		return 0, false
	}
	return p.OpStdDev[op], true
}

// Metric resolves a tracedata/heapdata name from the rule language
// (Fig. 4): size, maxSize, initialCapacity, maxLive, totLive, maxUsed,
// totUsed, maxCore, totCore, plus the derived allocs, liveObjects,
// maxObjects, totObjects, potential, emptyIterators and gcCycles.
func (p *Profile) Metric(name string) (float64, bool) {
	switch name {
	case "size":
		return p.FinalSizeAvg, true
	case "maxSize":
		return p.MaxSizeAvg, true
	case "initialCapacity":
		return p.InitialCapAvg, true
	case "maxLive":
		return float64(p.MaxHeap.Live), true
	case "totLive":
		return float64(p.TotHeap.Live), true
	case "maxUsed":
		return float64(p.MaxHeap.Used), true
	case "totUsed":
		return float64(p.TotHeap.Used), true
	case "maxCore":
		return float64(p.MaxHeap.Core), true
	case "totCore":
		return float64(p.TotHeap.Core), true
	case "allocs":
		return float64(p.Allocs), true
	case "liveObjects":
		return float64(p.Live), true
	case "maxObjects":
		return float64(p.MaxObjs), true
	case "totObjects":
		return float64(p.TotObjs), true
	case "potential":
		return float64(p.Potential()), true
	case "emptyIterators":
		return float64(p.EmptyIterators), true
	case "gcCycles":
		return float64(p.GCCycles), true
	case "emptyFraction":
		// Fraction of instances whose maximal size stayed 0. The paper
		// observes max sizes are "often biased around a single value
		// (e.g., 1), with a long tail" (§3.3.1); the mean hides that, so
		// rules about mostly-empty contexts (the bloat/PMD pathologies)
		// read the distribution directly.
		if p.SizeHist == nil {
			return 0, true
		}
		return p.SizeHist.Fraction(0), true
	case "sizeMode":
		// The most frequent per-instance maximal size.
		if p.SizeHist == nil {
			return 0, true
		}
		mode, _ := p.SizeHist.Mode()
		return float64(mode), true
	case "crossGoroutineFraction":
		// Fraction of owner samples that saw a different goroutine than
		// the previous sample — 0 for a collection touched by one
		// goroutine, approaching 1 under heavy interleaved sharing. With
		// no samples yet the context has shown no evidence of sharing, so
		// the fraction is 0.
		if p.OwnerSamples == 0 {
			return 0, true
		}
		return float64(p.OwnerMoves) / float64(p.OwnerSamples), true
	case "ownerStability":
		// Complement of crossGoroutineFraction: 1 means every sample saw
		// the same owner.
		if p.OwnerSamples == 0 {
			return 1, true
		}
		return 1 - float64(p.OwnerMoves)/float64(p.OwnerSamples), true
	}
	return 0, false
}

// Stability reports the standard deviation of a metric for stability
// gating (Definition 3.1). Metrics with no tracked variance report 0
// (always stable), matching the paper's default that only size values are
// required to be tight.
func (p *Profile) Stability(name string) float64 {
	switch name {
	case "size", "maxSize":
		return p.MaxSizeStdDev
	}
	return 0
}

// SrcKind reports the kind used for rule srcType matching: the declared
// kind of the context's collections.
func (p *Profile) SrcKind() spec.Kind { return p.Declared }

// Rank sorts profiles by descending space-saving potential, breaking ties
// by total operation volume. This is the ranked list of allocation
// contexts the tool presents (§2.1, Fig. 3).
func Rank(profiles []*Profile) []*Profile {
	out := make([]*Profile, len(profiles))
	copy(out, profiles)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Potential(), out[j].Potential()
		if pi != pj {
			return pi > pj
		}
		ti, tj := out[i].AllOpsTotal(), out[j].AllOpsTotal()
		if ti != tj {
			return ti > tj
		}
		return out[i].Context.Key() < out[j].Context.Key()
	})
	return out
}

// OpDistribution renders the non-zero operation totals sorted by count,
// like the operation-distribution circles of paper Fig. 3.
func (p *Profile) OpDistribution() string {
	type kv struct {
		op spec.Op
		n  int64
	}
	var rows []kv
	for op := spec.Op(0); op < spec.NumOps; op++ {
		if p.OpTotals[op] > 0 {
			rows = append(rows, kv{op, p.OpTotals[op]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	parts := make([]string, len(rows))
	total := p.AllOpsTotal()
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s=%d (%.0f%%)", r.op, r.n, stats.Percent(float64(r.n), float64(total)))
	}
	return strings.Join(parts, " ")
}

// String renders a one-line summary of the profile.
func (p *Profile) String() string {
	return fmt.Sprintf("%s@%s allocs=%d maxLive=%d maxUsed=%d potential=%d avgMaxSize=%.1f",
		p.Impl, p.Context.String(), p.Allocs, p.MaxHeap.Live, p.MaxHeap.Used, p.Potential(), p.MaxSizeAvg)
}

// profileJSON is the serialization shape of a Profile.
type profileJSON struct {
	Context        string           `json:"context"`
	Declared       string           `json:"declared"`
	Impl           string           `json:"impl"`
	Allocs         int64            `json:"allocs"`
	Live           int64            `json:"live"`
	Evidence       int64            `json:"evidence,omitempty"`
	Ops            map[string]int64 `json:"ops,omitempty"`
	MaxSizeAvg     float64          `json:"maxSizeAvg"`
	MaxSizeStdDev  float64          `json:"maxSizeStdDev"`
	MaxSizeMax     float64          `json:"maxSizeMax"`
	FinalSizeAvg   float64          `json:"finalSizeAvg"`
	InitialCapAvg  float64          `json:"initialCapAvg"`
	EmptyIterators int64            `json:"emptyIterators,omitempty"`
	OwnerSamples   int64            `json:"ownerSamples,omitempty"`
	OwnerMoves     int64            `json:"ownerMoves,omitempty"`
	MaxLive        int64            `json:"maxLive"`
	MaxUsed        int64            `json:"maxUsed"`
	MaxCore        int64            `json:"maxCore"`
	TotLive        int64            `json:"totLive"`
	TotUsed        int64            `json:"totUsed"`
	TotCore        int64            `json:"totCore"`
	Potential      int64            `json:"potential"`
	GCCycles       int64            `json:"gcCycles"`
}

// MarshalJSON serializes the profile with operation names spelled out.
func (p *Profile) MarshalJSON() ([]byte, error) {
	ops := make(map[string]int64)
	for op := spec.Op(0); op < spec.NumOps; op++ {
		if p.OpTotals[op] != 0 {
			ops[op.String()] = p.OpTotals[op]
		}
	}
	return json.Marshal(profileJSON{
		Context:        p.Context.String(),
		Declared:       p.Declared.String(),
		Impl:           p.Impl.String(),
		Allocs:         p.Allocs,
		Live:           p.Live,
		Evidence:       p.Evidence,
		Ops:            ops,
		MaxSizeAvg:     p.MaxSizeAvg,
		MaxSizeStdDev:  p.MaxSizeStdDev,
		MaxSizeMax:     p.MaxSizeMax,
		FinalSizeAvg:   p.FinalSizeAvg,
		InitialCapAvg:  p.InitialCapAvg,
		EmptyIterators: p.EmptyIterators,
		OwnerSamples:   p.OwnerSamples,
		OwnerMoves:     p.OwnerMoves,
		MaxLive:        p.MaxHeap.Live,
		MaxUsed:        p.MaxHeap.Used,
		MaxCore:        p.MaxHeap.Core,
		TotLive:        p.TotHeap.Live,
		TotUsed:        p.TotHeap.Used,
		TotCore:        p.TotHeap.Core,
		Potential:      p.Potential(),
		GCCycles:       p.GCCycles,
	})
}
