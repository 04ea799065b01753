package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// pairRatio is the median over rounds of a[i]/b[i], two series measured
// once per round: drift in the host's speed between rounds cancels.
func pairRatio(a, b []float64) float64 {
	r := make([]float64, min(len(a), len(b)))
	for i := range r {
		r[i] = a[i] / b[i]
	}
	return median(r)
}

// goStats is a reading of the Go runtime's cumulative allocation and GC
// counters (runtime/metrics).
type goStats struct {
	allocBytes, allocs, gcCycles float64
	gcPause                      float64 // seconds, summed from the pause histogram
	gcCPU                        float64 // seconds of CPU the runtime estimates GC used
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGo() goStats {
	metrics.Read(goSamples)
	g := goStats{
		allocBytes: float64(goSamples[0].Value.Uint64()),
		allocs:     float64(goSamples[1].Value.Uint64()),
		gcCycles:   float64(goSamples[2].Value.Uint64()),
		gcCPU:      goSamples[4].Value.Float64(),
	}
	if goSamples[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := goSamples[3].Value.Float64Histogram()
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			g.gcPause += float64(n) * (lo + hi) / 2
		}
	}
	return g
}

// cpuTime is the CPU time the process has used: every goroutine's and the
// Go runtime's, but not the time the host's hypervisor took the CPU away
// (Linux does not charge steal time to a task).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (g goStats) sub(o goStats) goStats {
	return goStats{
		allocBytes: g.allocBytes - o.allocBytes,
		allocs:     g.allocs - o.allocs,
		gcCycles:   g.gcCycles - o.gcCycles,
		gcPause:    g.gcPause - o.gcPause,
		gcCPU:      g.gcCPU - o.gcCPU,
	}
}

// machine is the record every result carries, so a number can be traced
// to the box, toolchain, code and seed that produced it.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func machineRecord(seed uint64) machine {
	return machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reports the VCS revision the toolchain stamped into the binary;
// a build from an export (no .git) has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
