package main

import (
	"fmt"

	"chameleon/internal/adaptive"
	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/governor"
	"chameleon/internal/heap"
	"chameleon/internal/workloads"
)

// gcThreshold is the simulated-heap allocation volume between GC cycles,
// the value every repository benchmark uses.
const gcThreshold = 64 << 10

// Frontend batches: one generation of 32 requests (scale 4) across 2
// workers, issued back to back by one closed-loop client.
const (
	frontendBatchScale   = 4
	frontendWorkers      = 2
	frontendBatchesPerIt = 64
	frontendWarmBatches  = 200
)

// workload is one benchmark workload: a driver, the configuration it runs
// under, and the scale that keeps one iteration short enough for a run to
// collect about a thousand of them.
type workload struct {
	name  string
	spec  string // workloads.ByName name
	scale int
	top   core.Config
	// shared marks the frontend: one long-lived session per run, and an
	// iteration is a sequence of timed batches on it.
	shared bool
	// pinFull pins the runtime to the full profiling tier, as
	// BenchmarkGovernorTiers/full does for a metered session.
	pinFull bool
}

// stormScale sizes contextstorm: 960 storm iterations, 156 cold contexts.
const stormScale = 30

// allWorkloads is in BENCHMARK.json's order; README.md gives the reason
// for each choice.
var allWorkloads = []*workload{
	{
		name:  "pmd-auto",
		spec:  "pmd",
		scale: 25,
		top:   autoConfig(),
	},
	{
		name:  "tvla-auto",
		spec:  "tvla",
		scale: 120,
		top:   autoConfig(),
	},
	{
		name:  "frontend-online",
		spec:  "frontend",
		scale: frontendBatchScale,
		top: core.Config{
			Mode:          alloctx.Static,
			Online:        true,
			OnlineOptions: adaptive.Options{MinEvidence: 4},
			GCThreshold:   gcThreshold,
			DropSnapshots: true,
		},
		shared: true,
	},
	{
		name:  "contextstorm-governed",
		spec:  "contextstorm",
		scale: stormScale,
		top: core.Config{
			Mode:           alloctx.Static,
			GCThreshold:    gcThreshold,
			DropSnapshots:  true,
			MaxContexts:    workloads.StormColdContexts(stormScale) - 1,
			OverheadBudget: 0.05, // wires the meter; ticking stays manual
		},
		pinFull: true,
	},
}

// autoConfig is the fully automatic mode of BenchmarkAutoOverhead (§3.3.2).
func autoConfig() core.Config {
	return core.Config{
		Mode:          alloctx.Dynamic,
		Online:        true,
		OnlineOptions: adaptive.Options{MinEvidence: 32},
		GCThreshold:   gcThreshold,
		DropSnapshots: true,
	}
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instance is one configured program under test: a core.Session, or the
// plain runtime built from collections.Config directly.
type instance struct {
	rt   *collections.Runtime
	heap *heap.Heap
	sess *core.Session // nil for the plain runtime
}

// newPlain builds the plain runtime: heap tickets and the simulated GC,
// no context capture, no profiler, no selector. It is assembled from
// collections.Config because core.NewSession reads Mode 0 (alloctx.Off)
// as "default" and turns static capture back on.
func newPlain() *instance {
	h := heap.New(heap.Config{GCThreshold: gcThreshold})
	return &instance{rt: collections.NewRuntime(collections.Config{Heap: h}), heap: h}
}

func (w *workload) newSession(cfg core.Config) *instance {
	s := core.NewSession(cfg)
	if w.pinFull {
		s.Runtime().SetProfilingTier(governor.TierFull, 1)
	}
	return &instance{rt: s.Runtime(), heap: s.Heap, sess: s}
}

// unit runs one checked unit of work: a whole driver run for the
// single-goroutine workloads, one batch for the frontend.
func (w *workload) unit(in *instance) uint64 {
	if w.shared {
		return workloads.FrontendRun(in.rt, workloads.Baseline, w.scale, frontendWorkers, 0).Checksum
	}
	spec, err := workloads.ByName(w.spec)
	if err != nil {
		panic(err) // the workload table names only drivers that exist
	}
	sum := spec.Run(in.rt, workloads.Baseline, w.scale)
	in.heap.GC() // Session.FinalGC: record end-of-run statistics
	return sum
}

// rung builds the i-th configuration of the ablation ladder. Each rung
// adds one layer to the one below, using only public configuration, and
// the top rung is the workload's own configuration:
//
//	0 plain runtime at TierOff (wrapper dispatch only)
//	1 plain runtime (+ heap tickets and simulated GC)
//	2 + context capture (and the context budget)
//	3 + profiler
//	4 + selector
//	5 + governor meter
//
// A rung whose layer the workload does not use repeats the rung below.
func (w *workload) rung(i int) *instance {
	switch i {
	case 0:
		in := newPlain()
		in.rt.SetProfilingTier(governor.TierOff, 1)
		return in
	case 1:
		return newPlain()
	}
	cfg := core.Config{
		Mode:          w.top.Mode,
		Depth:         w.top.Depth,
		MaxContexts:   w.top.MaxContexts,
		GCThreshold:   w.top.GCThreshold,
		DropSnapshots: w.top.DropSnapshots,
		NoProfiling:   i < 3,
	}
	if i >= 4 {
		cfg.Online, cfg.OnlineOptions = w.top.Online, w.top.OnlineOptions
	}
	if i >= 5 {
		cfg.OverheadBudget = w.top.OverheadBudget
	}
	return w.newSession(cfg)
}

const numRungs = 6

// rungLayers names the layer each rung adds, in ladder order.
var rungLayers = [numRungs]string{"collections", "heap", "alloctx", "profiler", "adaptive", "governor"}

// warm brings a shared (frontend) instance to steady state: the selector
// decides the hot contexts during the warm-up batches.
func (w *workload) warm(in *instance, ref uint64) error {
	for i := 0; i < frontendWarmBatches; i++ {
		if got := w.unit(in); got != ref {
			return fmt.Errorf("%s: warm-up batch %d checksum %#x, want %#x", w.name, i, got, ref)
		}
	}
	return nil
}
