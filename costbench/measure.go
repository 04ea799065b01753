package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"time"
)

// checker is the correctness gate: every unit's checksum must equal both
// the reference computed on the plain runtime in this process and, at the
// benchmark's own scales, the constant recorded in reference.go.
type checker struct {
	w         *workload
	ref       uint64
	constant  uint64
	hasConst  bool
	attempted int
	failed    int
	log       io.Writer
}

func newChecker(w *workload, log io.Writer) *checker {
	c := &checker{w: w, log: log}
	c.constant, c.hasConst = referenceChecksum(w)
	plain := newPlain()
	c.ref = w.unit(plain)
	if c.hasConst && c.ref != c.constant {
		c.attempted++
		c.failed++
		fmt.Fprintf(log, "MISMATCH %s plain reference %#x differs from recorded constant %#x\n", w.name, c.ref, c.constant)
	}
	return c
}

func (c *checker) check(side string, i int, got uint64) {
	c.attempted++
	if got == c.ref && (!c.hasConst || got == c.constant) {
		return
	}
	c.failed++
	if c.failed <= 20 {
		fmt.Fprintf(c.log, "MISMATCH %s %s unit %d: checksum %#x, want %#x\n", c.w.name, side, i, got, c.ref)
	}
}

// iterResult is one timed iteration.
type iterResult struct {
	run     time.Duration
	cpu     time.Duration // process CPU time of the timed part
	setup   time.Duration // single-goroutine workloads: session construction
	units   []float64     // frontend: each batch's latency in µs
	goDelta goStats
	minHeap float64
	simGCs  float64
}

// side is one configuration under test, iterated interleaved with others.
type side struct {
	name string
	w    *workload
	make func() *instance
	chk  *checker
	// in is the frontend's long-lived instance, the last of those built;
	// setups holds the time of each construction plus warm-up, and
	// minHeaps each warmed instance's simulated minimal heap.
	in       *instance
	setups   []float64
	minHeaps []float64
	// after runs once the timed part is over; tr records spans. Both are
	// for the traced run.
	after func(in *instance)
	tr    *tracer
	n     int
}

// setupReps is how many times the untraced run constructs and warms the
// frontend's instrumented side, so that setup_s is a median and
// sim_minheap_bytes a mean over sessions rather than one sample each.
const setupReps = 25

// newSide builds a side. For the frontend it constructs and warms the
// long-lived instance reps times, keeping the last.
func newSide(name string, w *workload, chk *checker, reps int, make func() *instance) (*side, error) {
	s := &side{name: name, w: w, make: make, chk: chk}
	if !w.shared {
		return s, nil
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		in := make()
		if err := w.warm(in, chk.ref); err != nil {
			return nil, err
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		s.minHeaps = append(s.minHeaps, float64(in.heap.MinimalHeap()))
		s.in = in
	}
	return s, nil
}

func (s *side) iterate() iterResult {
	s.n++
	var r iterResult
	in := s.in
	if !s.w.shared {
		t0 := time.Now()
		in = s.make()
		r.setup = time.Since(t0)
	}
	root := s.tr.begin("iteration", 0)
	gc0 := in.heap.Stats().NumGC
	g0 := readGo()
	c0 := cpuTime()
	t0 := time.Now()
	var sum uint64
	if s.w.shared {
		r.units = make([]float64, frontendBatchesPerIt)
		for b := range r.units {
			sp := s.tr.begin("batch", root)
			tb := time.Now()
			bsum := s.w.unit(in)
			r.units[b] = float64(time.Since(tb).Nanoseconds()) / 1e3
			s.tr.end(sp)
			s.chk.check(s.name, s.n*frontendBatchesPerIt+b, bsum)
		}
	} else {
		sum = s.w.unit(in)
	}
	r.run = time.Since(t0)
	r.cpu = cpuTime() - c0
	s.tr.end(root)
	// Collect the iteration's garbage now, outside the timed part: the Go
	// GC cost of its allocations is counted in goDelta, and the next
	// iteration starts from a collected heap, so that the Go GC cycles
	// inside an iteration fall at the same allocation volume every time.
	runtime.GC()
	r.goDelta = readGo().sub(g0)
	if !s.w.shared {
		s.chk.check(s.name, s.n, sum)
	}
	r.minHeap = float64(in.heap.MinimalHeap())
	r.simGCs = float64(in.heap.Stats().NumGC - gc0)
	if s.after != nil {
		s.after(in)
	}
	return r
}

// interleave runs the steps until the deadline (and at least minRounds
// rounds), each round in a fresh seeded order, so that drift on the
// machine spreads evenly over the configurations compared.
func interleave(rng *rand.Rand, steps []func(), deadline time.Time, minRounds int) {
	order := make([]int, len(steps))
	for i := range order {
		order[i] = i
	}
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			steps[i]()
		}
	}
}

// series collects per-iteration values of one configuration.
type series struct {
	run, cpu, setup, units, allocBytes, allocs, minHeap, simGCs []float64
	goTotal                                                     goStats
}

func (s *series) add(r iterResult) {
	s.run = append(s.run, r.run.Seconds())
	s.cpu = append(s.cpu, r.cpu.Seconds())
	s.setup = append(s.setup, r.setup.Seconds())
	s.units = append(s.units, r.units...)
	s.allocBytes = append(s.allocBytes, r.goDelta.allocBytes)
	s.allocs = append(s.allocs, r.goDelta.allocs)
	s.minHeap = append(s.minHeap, r.minHeap)
	s.simGCs = append(s.simGCs, r.simGCs)
	s.goTotal.gcCycles += r.goDelta.gcCycles
	s.goTotal.gcPause += r.goDelta.gcPause
	s.goTotal.gcCPU += r.goDelta.gcCPU
}

// latencies reports the timed units in µs: frontend batches, or whole
// iterations for the single-goroutine workloads.
func (s *series) latencies() []float64 {
	if len(s.units) > 0 {
		return s.units
	}
	out := make([]float64, len(s.run))
	for i, v := range s.run {
		out[i] = v * 1e6
	}
	return out
}

// untracedResult is everything an untraced run measured, kept per
// repetition.
type untracedResult struct {
	metrics map[string]metric
	// extra is recorded but not reported as a metric: the absolute
	// times. On a shared host the hypervisor takes the CPU away for
	// milliseconds at a time (an iteration's CPU time can be half its wall
	// time), and the host's speed drifts by a fifth over minutes, so over
	// ten runs the quartile spread of the median wall time reached 0.49
	// of the median, of the median CPU time 0.13, and of the p99 0.89.
	// The metrics are ratios taken within each round instead, where that
	// drift cancels.
	extra  map[string]metric
	inst   series
	plain  series
	setups []float64
	ref    []float64 // CPU seconds of each round's reference unit
	// minHeaps: per iteration, or per warmed session for the frontend
	minHeaps []float64
}

// runUntraced measures the end-to-end metrics: instrumented iterations of
// the workload's configuration interleaved with the same iterations on
// the plain runtime.
func runUntraced(w *workload, seed uint64, budget time.Duration, chk *checker) (*untracedResult, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc908))
	inst, err := newSide("instrumented", w, chk, setupReps, func() *instance { return w.newSession(w.top) })
	if err != nil {
		return nil, err
	}
	plain, err := newSide("plain", w, chk, 1, newPlain)
	if err != nil {
		return nil, err
	}
	// One untimed round: lazy initialisation and caches settle first.
	inst.iterate()
	plain.iterate()
	timeRefUnit()

	res := &untracedResult{}
	deadline := time.Now().Add(budget)
	interleave(rng, []func(){
		func() { res.inst.add(inst.iterate()) },
		func() { res.plain.add(plain.iterate()) },
		func() { res.ref = append(res.ref, timeRefUnit()) },
	}, deadline, 3)
	res.setups = res.inst.setup
	if w.shared {
		res.setups = inst.setups
	}
	lat := res.inst.latencies()
	res.minHeaps = res.inst.minHeap
	minHeap := median(res.minHeaps)
	if w.shared {
		// A session's peak is set mostly during warm-up, by which
		// decisions its two workers' timing led the selector to; it
		// ranges over a sixth between sessions, so it is averaged.
		res.minHeaps = inst.minHeaps
		minHeap = mean(res.minHeaps)
	}
	res.metrics = map[string]metric{
		"setup_s":           {median(res.setups), "s"},
		"run_ref_x":         {pairRatio(res.inst.cpu, res.ref), "x"},
		"plain_ref_x":       {pairRatio(res.plain.cpu, res.ref), "x"},
		"overhead_x":        {pairRatio(res.inst.cpu, res.plain.cpu), "x"},
		"alloc_bytes":       {median(res.inst.allocBytes), "bytes"},
		"allocs":            {median(res.inst.allocs), "count"},
		"sim_minheap_bytes": {minHeap, "bytes"},
		"sim_gc_cycles":     {median(res.inst.simGCs), "count"},
	}
	res.extra = map[string]metric{
		"run_s":       {median(res.inst.run), "s"},
		"plain_run_s": {median(res.plain.run), "s"},
		"p50_us":      {quantile(lat, 0.50), "us"},
		"p99_us":      {quantile(lat, 0.99), "us"},
		"run_cpu_s":   {median(res.inst.cpu), "s"},
		"plain_cpu_s": {median(res.plain.cpu), "s"},
		"ref_cpu_s":   {median(res.ref), "s"},
	}
	return res, nil
}
