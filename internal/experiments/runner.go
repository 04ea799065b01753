// Package experiments regenerates every figure and table of the paper's
// evaluation (§5): the TVLA potential series (Fig. 2), the top-context
// report (Fig. 3, §2.1), the minimal-heap improvements (Fig. 6), the
// running-time improvements (Fig. 7), the bloat spike (Fig. 8), the §2.3
// hybrid-threshold sweep, and the §5.4 fully-automatic-mode overhead.
// Each experiment returns structured rows and can render itself as text;
// EXPERIMENTS.md records paper-vs-measured for every row.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/core"
	"chameleon/internal/heap"
	"chameleon/internal/workloads"
)

// RunResult is one workload execution under one configuration.
type RunResult struct {
	Workload    string
	Variant     workloads.Variant
	Checksum    uint64
	Stats       heap.Stats
	MinimalHeap int64
	Duration    time.Duration
	Session     *core.Session
}

// Run executes one workload variant in a fresh session and collects heap
// statistics and wall-clock duration.
func Run(spec workloads.Spec, v workloads.Variant, scale int, cfg core.Config) RunResult {
	s := core.NewSession(cfg)
	start := time.Now()
	sum := spec.Run(s.Runtime(), v, scale)
	dur := time.Since(start)
	s.FinalGC()
	return RunResult{
		Workload:    spec.Name,
		Variant:     v,
		Checksum:    sum,
		Stats:       s.Heap.Stats(),
		MinimalHeap: s.Heap.MinimalHeap(),
		Duration:    dur,
		Session:     s,
	}
}

// defaultConfig is the standard measurement configuration: static contexts
// (cheap capture), 256 KiB GC threshold for a dense cycle series.
func defaultConfig() core.Config {
	return core.Config{
		Mode:        alloctx.Static,
		GCThreshold: 64 << 10,
	}
}

// timedConfig is the timing configuration: profiling off (the paper's
// before/after timing runs execute the plain program), GC threshold tied
// to the given heap budget — running "with the original minimal-heap size"
// (§5.2 step 6) means both variants get the same absolute heap budget, so
// a variant that allocates less collects less often.
func timedConfig(heapBudget int64) core.Config {
	thr := heapBudget / 4
	if thr < 64<<10 {
		thr = 64 << 10
	}
	return core.Config{
		Mode:          alloctx.Off,
		NoProfiling:   true,
		GCThreshold:   thr,
		DropSnapshots: true,
	}
}

// timedRun is one program configuration of a timing comparison.
type timedRun struct {
	spec workloads.Spec
	v    workloads.Variant
	cfg  core.Config
}

// timeRuns times each run reps times (default 3) at the given scale, every
// repetition in a fresh session started from a collected Go heap. The runs
// take turns, so a burst of load on the machine slows them alike. It
// reports each run's median duration and its last result, whose checksum
// and minimal heap every repetition shares.
func timeRuns(scale, reps int, runs ...timedRun) ([]time.Duration, []RunResult) {
	if reps <= 0 {
		reps = 3
	}
	ds := make([][]time.Duration, len(runs))
	last := make([]RunResult, len(runs))
	for range reps {
		for i, r := range runs {
			runtime.GC()
			last[i] = Run(r.spec, r.v, scale, r.cfg)
			ds[i] = append(ds[i], last[i].Duration)
		}
	}
	medians := make([]time.Duration, len(runs))
	for i, d := range ds {
		slices.Sort(d)
		medians[i] = (d[(reps-1)/2] + d[reps/2]) / 2
	}
	return medians, last
}

// pctImprovement is 100*(base-after)/base, 0 when base is 0.
func pctImprovement(base, after float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - after) / base
}

// checkEquivalence returns an error when two variants of a workload
// computed different results — a violation of the interchangeability
// requirement that would invalidate the whole comparison.
func checkEquivalence(name string, base, tuned uint64) error {
	if base != tuned {
		return fmt.Errorf("experiments: %s: tuned variant changed the computed result (%#x vs %#x)", name, base, tuned)
	}
	return nil
}
