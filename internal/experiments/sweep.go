package experiments

import (
	"fmt"
	"strings"
	"time"

	"chameleon/internal/alloctx"
	"chameleon/internal/collections"
	"chameleon/internal/core"
	"chameleon/internal/workloads"
)

// autoConfig is the §5.4 fully-automatic configuration: dynamic (stack
// walking) context capture, full profiling, and the online selector — the
// expensive path whose overhead the experiment measures.
func autoConfig(heapBudget int64) core.Config {
	cfg := timedConfig(heapBudget)
	cfg.NoProfiling = false
	cfg.Mode = alloctx.Dynamic
	cfg.Online = true
	return cfg
}

// SweepRow is one conversion threshold of the §2.3 hybrid experiment on
// TVLA: the SizeAdaptingMap switches from an array to a hash map when its
// size crosses Threshold.
type SweepRow struct {
	Threshold   int
	MinimalHeap int64
	Duration    time.Duration
	// HeapVsBaselinePct is the minimal-heap change relative to the
	// unmodified (HashMap) baseline; positive = smaller heap.
	HeapVsBaselinePct float64
	// TimeVsBaselinePct is the run-time change relative to baseline;
	// negative = slower (the paper saw ~8% degradation at the good
	// threshold).
	TimeVsBaselinePct float64
}

// Sweep reproduces the §2.3 hybrid-collection experiment: TVLA run with
// SizeAdaptingMaps at each conversion threshold, compared against the
// plain-HashMap baseline. The paper found conversion at 16 gives a low
// footprint with ~8% time cost, larger thresholds add no footprint win,
// and threshold 13 (below the typical map size) gives the original
// footprint back.
func Sweep(thresholds []int, scale, reps int) ([]SweepRow, int64, error) {
	spec, err := workloads.ByName("tvla")
	if err != nil {
		return nil, 0, err
	}
	if scale <= 0 {
		scale = spec.DefaultScale
	}
	if len(thresholds) == 0 {
		thresholds = []int{2, 4, 6, 8, 13, 16, 24, 32}
	}

	base := Run(spec, workloads.Baseline, scale, defaultConfig())
	cfg := timedConfig(base.MinimalHeap)
	runs := []timedRun{{spec, workloads.Baseline, cfg}}
	for _, thr := range thresholds {
		adaptive := func(rt *collections.Runtime, _ workloads.Variant, sc int) uint64 {
			return workloads.RunTVLAAdaptive(rt, thr, sc)
		}
		aspec := workloads.Spec{Name: fmt.Sprintf("tvla-adapt-%d", thr), Run: adaptive}
		runs = append(runs, timedRun{aspec, workloads.Baseline, cfg})
	}
	t, r := timeRuns(scale, reps, runs...)

	var rows []SweepRow
	for i, thr := range thresholds {
		aspec := runs[i+1].spec
		space := Run(aspec, workloads.Baseline, scale, defaultConfig())
		if err := checkEquivalence(aspec.Name, r[0].Checksum, space.Checksum); err != nil {
			return nil, 0, err
		}
		rows = append(rows, SweepRow{
			Threshold:         thr,
			MinimalHeap:       space.MinimalHeap,
			Duration:          t[i+1],
			HeapVsBaselinePct: pctImprovement(float64(base.MinimalHeap), float64(space.MinimalHeap)),
			TimeVsBaselinePct: pctImprovement(float64(t[0]), float64(t[i+1])),
		})
	}
	return rows, base.MinimalHeap, nil
}

// FormatSweep renders the sweep table.
func FormatSweep(rows []SweepRow, baselineHeap int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline (HashMap) minimal heap: %d bytes\n", baselineHeap)
	fmt.Fprintf(&b, "%10s %12s %12s %12s %12s\n", "threshold", "minheap", "heap-save%", "time(ms)", "time-delta%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %12d %11.2f%% %12.2f %+11.2f%%\n",
			r.Threshold, r.MinimalHeap, r.HeapVsBaselinePct,
			float64(r.Duration.Microseconds())/1000, r.TimeVsBaselinePct)
	}
	return b.String()
}

// AutoRow is one benchmark of the §5.4 fully-automatic-mode experiment.
type AutoRow struct {
	Benchmark string
	// BaselineMs is the plain program (static choices, no profiling).
	BaselineMs float64
	// AutoMs is the fully-automatic mode: dynamic context capture,
	// profiling, and online replacement.
	AutoMs float64
	// SlowdownPct is the overhead of the automatic mode.
	SlowdownPct float64
	// AutoMinHeap and ManualMinHeap compare the space achieved
	// automatically against applying the suggestions manually.
	AutoMinHeap   int64
	ManualMinHeap int64
	// PaperSlowdownPct is the slowdown the paper reports (35% for TVLA,
	// ~500% for PMD).
	PaperSlowdownPct float64
}

// AutoOverhead reproduces the §5.4 experiment on TVLA and PMD: the paper
// found automatic replacement matched the manual space saving on TVLA with
// a 35% slowdown, while PMD's massive rapid allocation of short-lived
// collections amplified the cost of obtaining allocation contexts into a
// prohibitive (6x) slowdown.
func AutoOverhead(scale map[string]int, reps int) ([]AutoRow, error) {
	paperSlow := map[string]float64{"tvla": 35, "pmd": 500}
	var rows []AutoRow
	for _, name := range []string{"tvla", "pmd"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		sc := spec.DefaultScale
		if s, ok := scale[name]; ok && s > 0 {
			sc = s
		}
		base := Run(spec, workloads.Baseline, sc, defaultConfig())
		budget := base.MinimalHeap
		t, r := timeRuns(sc, reps,
			timedRun{spec, workloads.Baseline, timedConfig(budget)},
			timedRun{spec, workloads.Baseline, autoConfig(budget)})
		if err := checkEquivalence(name+"-auto", r[0].Checksum, r[1].Checksum); err != nil {
			return nil, err
		}
		baseTime, autoTime := t[0], t[1]
		manual := Run(spec, workloads.Tuned, sc, defaultConfig())

		rows = append(rows, AutoRow{
			Benchmark:        name,
			BaselineMs:       float64(baseTime.Microseconds()) / 1000,
			AutoMs:           float64(autoTime.Microseconds()) / 1000,
			SlowdownPct:      -pctImprovement(float64(baseTime), float64(autoTime)),
			AutoMinHeap:      r[1].MinimalHeap,
			ManualMinHeap:    manual.MinimalHeap,
			PaperSlowdownPct: paperSlow[name],
		})
	}
	return rows, nil
}

// FormatAuto renders the §5.4 table.
func FormatAuto(rows []AutoRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %14s %14s %12s\n",
		"benchmark", "base(ms)", "auto(ms)", "slowdown%", "auto-minheap", "manual-minheap", "paper-slow%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f %11.2f%% %14d %14d %11.2f%%\n",
			r.Benchmark, r.BaselineMs, r.AutoMs, r.SlowdownPct, r.AutoMinHeap, r.ManualMinHeap, r.PaperSlowdownPct)
	}
	return b.String()
}
