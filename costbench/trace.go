package main

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"

	"chameleon/internal/collections"
	"chameleon/internal/rules"
	"chameleon/internal/spec"
)

// span is one timed region of the benchmark's own code, kept in memory
// until the run ends.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

// tracer records spans from one goroutine. A nil tracer records nothing,
// so untraced sides pay one nil check per span.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil && id > 0 {
		t.spans[id-1].End = time.Since(t.epoch)
	}
}

// spanTotal is the aggregate of all spans with one name.
type spanTotal struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"` // total minus the time child spans cover
}

func (t *tracer) totals() []spanTotal {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	by := map[string]*spanTotal{}
	var names []string
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			by[s.Name] = st
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d.Seconds()
		st.Self += (d - child[s.ID]).Seconds()
	}
	out := make([]spanTotal, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// selectTimer is a collections.SelectorFunc decorator that times every
// Select call into count, total and a log-linear histogram, and returns
// the wrapped selector's decision unchanged. It is safe for concurrent
// use (the frontend selects from two workers).
type selectTimer struct {
	calls atomic.Int64
	nanos atomic.Int64
	hist  [512]atomic.Int64
}

// wrap installs the decorator around rt's selector; a runtime without a
// selector is left alone.
func (st *selectTimer) wrap(rt *collections.Runtime) {
	inner := rt.Selector()
	if inner == nil {
		return
	}
	rt.SetSelector(collections.SelectorFunc(func(key uint64, declared spec.Kind, def collections.Decision) collections.Decision {
		t0 := time.Now()
		dec := inner.Select(key, declared, def)
		d := time.Since(t0).Nanoseconds()
		st.calls.Add(1)
		st.nanos.Add(d)
		st.hist[bucketOf(d)].Add(1)
		return dec
	}))
}

// bucketOf maps a duration in ns to a histogram bucket: exact below 16,
// then 8 buckets per power of two (12.5% resolution).
func bucketOf(v int64) int {
	if v < 16 {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 4
	return e*8 + int(v>>e)
}

// bucketLow is the smallest value bucketOf maps to bucket i.
func bucketLow(i int) int64 {
	if i < 16 {
		return int64(i)
	}
	e := i/8 - 1
	return int64(i%8+8) << e
}

func (st *selectTimer) reset() {
	st.calls.Store(0)
	st.nanos.Store(0)
	for i := range st.hist {
		st.hist[i].Store(0)
	}
}

func (st *selectTimer) quantileNs(q float64) float64 {
	n := st.calls.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	var seen int64
	for i := range st.hist {
		seen += st.hist[i].Load()
		if seen > rank {
			return float64(bucketLow(i)+bucketLow(i+1)) / 2
		}
	}
	return 0
}

// layerSeries is what the traced run reads from the layers after each
// traced iteration.
type layerSeries struct {
	contexts, overflow                   []float64
	decides, replacements, rollbacks     []float64
	profContexts, snapshotMs, gcMs       []float64
	evalUs                               []float64
	flushS, flushes, gcWalkS, windowFold []float64
	selectCalls, selectS                 []float64
	prevCalls, prevNanos                 int64
}

// tracedResult is everything a traced run measured.
type tracedResult struct {
	metrics  map[string]metric
	extra    map[string]metric // printed in the table, not gated on
	untraced series
	traced   series
	rungs    [numRungs][]float64
	layers   layerSeries
	spans    []spanTotal
	micro    map[string][]float64
}

// runTraced measures the per-layer table: microbenchmarks of each layer's
// public entry points, then traced iterations (Select decorator, spans and
// counter reads) interleaved with untraced ones, a metered twin and the
// rungs of the ablation ladder.
func runTraced(w *workload, seed uint64, budget time.Duration, chk *checker) (*tracedResult, error) {
	start := time.Now()
	rng := rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b))
	res := &tracedResult{micro: runMicro(seed, budget/10)}

	tr := &tracer{epoch: time.Now()}
	sel := &selectTimer{}
	untraced, err := newSide("untraced", w, chk, 1, func() *instance { return w.newSession(w.top) })
	if err != nil {
		return nil, err
	}
	traced, err := newSide("traced", w, chk, 1, func() *instance {
		in := w.newSession(w.top)
		sel.wrap(in.rt)
		return in
	})
	if err != nil {
		return nil, err
	}
	traced.tr = tr
	sel.reset() // drop the frontend warm-up's selections
	traced.after = func(in *instance) { res.layers.readTraced(in, sel) }

	// The metered twin adds the governor meter (ticking manual, tier
	// full) so that flush, GC-walk and fold time can be read on every
	// workload; on contextstorm it is the workload's own configuration.
	metered := w.top
	if metered.OverheadBudget == 0 {
		metered.OverheadBudget = 0.05
	}
	twin, err := newSide("metered", w, chk, 1, func() *instance { return w.newSession(metered) })
	if err != nil {
		return nil, err
	}
	var prevMeter meterReading
	twin.after = func(in *instance) {
		m := readMeter(in)
		d := m.sub(prevMeter)
		if w.shared {
			prevMeter = m
		}
		res.layers.flushS = append(res.layers.flushS, d.flush)
		res.layers.flushes = append(res.layers.flushes, d.flushes)
		res.layers.gcWalkS = append(res.layers.gcWalkS, d.gcWalk)
		res.layers.windowFold = append(res.layers.windowFold, d.windowFold)
	}
	if w.shared {
		prevMeter = readMeter(twin.in)
	}

	// The ladder's rungs run in the same rounds as the untraced and
	// traced sides, so that every configuration sees the same machine.
	sides := []*side{untraced, traced, twin}
	for i := 0; i < numRungs; i++ {
		r, err := newSide(fmt.Sprintf("rung%d", i), w, chk, 1, func() *instance { return w.rung(i) })
		if err != nil {
			return nil, err
		}
		sides = append(sides, r)
	}
	steps := []func(){
		func() { res.untraced.add(untraced.iterate()) },
		func() { res.traced.add(traced.iterate()) },
		func() { twin.iterate() },
	}
	for i, r := range sides[3:] {
		steps = append(steps, func() { res.rungs[i] = append(res.rungs[i], r.iterate().cpu.Seconds()) })
	}
	interleave(rng, steps, start.Add(budget), 3)
	res.spans = tr.totals()
	res.summarize(sel)
	return res, nil
}

// readTraced reads the layers' exported counters after one traced
// iteration. For the frontend the counters are the long-lived session's
// totals; Select calls and time are the iteration's own.
func (ls *layerSeries) readTraced(in *instance, sel *selectTimer) {
	s := in.sess
	ls.contexts = append(ls.contexts, float64(s.Contexts.Len()))
	ls.overflow = append(ls.overflow, float64(s.Contexts.OverflowAdmissions()))
	var dec, rep, rb int64
	if s.Selector != nil {
		dec, rep, rb = s.Selector.Decides(), s.Selector.Replacements(), s.Selector.Rollbacks()
	}
	ls.decides = append(ls.decides, float64(dec))
	ls.replacements = append(ls.replacements, float64(rep))
	ls.rollbacks = append(ls.rollbacks, float64(rb))
	calls, nanos := sel.calls.Load(), sel.nanos.Load()
	ls.selectCalls = append(ls.selectCalls, float64(calls-ls.prevCalls))
	ls.selectS = append(ls.selectS, float64(nanos-ls.prevNanos)/1e9)
	ls.prevCalls, ls.prevNanos = calls, nanos
	ls.profContexts = append(ls.profContexts, float64(s.Prof.Contexts()))

	t0 := time.Now()
	profiles := s.Prof.Snapshot()
	ls.snapshotMs = append(ls.snapshotMs, float64(time.Since(t0).Nanoseconds())/1e6)
	if len(profiles) > 0 {
		rs := rules.Builtin()
		opts := rules.EvalOptions{Params: rules.DefaultParams}
		t0 = time.Now()
		for _, p := range profiles {
			_, _ = rules.EvalSafe(rs, p, opts) // only the time matters; a panic is contained into the error
		}
		ls.evalUs = append(ls.evalUs, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(profiles)))
	}
	t0 = time.Now()
	in.heap.GC()
	ls.gcMs = append(ls.gcMs, float64(time.Since(t0).Nanoseconds())/1e6)
}

// meterReading is the governor meter's cumulative cost per source.
type meterReading struct{ flush, flushes, gcWalk, windowFold float64 }

func readMeter(in *instance) meterReading {
	h := in.sess.Governor.Health()
	return meterReading{
		flush:      float64(h.SourceNanos["flush"]) / 1e9,
		flushes:    float64(h.SourceEvents["flush"]),
		gcWalk:     float64(h.SourceNanos["gcWalk"]) / 1e9,
		windowFold: float64(h.SourceNanos["windowFold"]) / 1e9,
	}
}

func (m meterReading) sub(o meterReading) meterReading {
	return meterReading{m.flush - o.flush, m.flushes - o.flushes, m.gcWalk - o.gcWalk, m.windowFold - o.windowFold}
}

// summarize turns the collected series into the per-layer metrics.
func (res *tracedResult) summarize(sel *selectTimer) {
	var rung [numRungs]float64
	for i := range rung {
		rung[i] = median(res.rungs[i])
	}
	untracedRun, tracedRun := median(res.untraced.cpu), median(res.traced.cpu)
	m := map[string]metric{
		"collections.base_s":   {rung[0], "s"},
		"heap.ablation_s":      {rung[1] - rung[0], "s"},
		"alloctx.ablation_s":   {rung[2] - rung[1], "s"},
		"profiler.ablation_s":  {rung[3] - rung[2], "s"},
		"adaptive.ablation_s":  {rung[4] - rung[3], "s"},
		"governor.ablation_s":  {rung[5] - rung[4], "s"},
		"trace.overhead_frac":  {(tracedRun - untracedRun) / untracedRun, "frac"},
		"trace.unattributed_s": {untracedRun - rung[numRungs-1], "s"},

		"alloctx.contexts":      {median(res.layers.contexts), "count"},
		"alloctx.overflow":      {median(res.layers.overflow), "count"},
		"adaptive.decides":      {median(res.layers.decides), "count"},
		"adaptive.replacements": {median(res.layers.replacements), "count"},
		"adaptive.rollbacks":    {median(res.layers.rollbacks), "count"},
		"adaptive.select_calls": {median(res.layers.selectCalls), "count"},
		"profiler.contexts":     {median(res.layers.profContexts), "count"},
		"profiler.snapshot_ms":  {median(res.layers.snapshotMs), "ms"},
		"profiler.flush_s":      {median(res.layers.flushS), "s"},
		"profiler.flushes":      {median(res.layers.flushes), "count"},
		"heap.gc_walk_s":        {median(res.layers.gcWalkS), "s"},
		"heap.gc_ms":            {median(res.layers.gcMs), "ms"},
		"rules.eval_us":         {median(res.layers.evalUs), "us"},
		"go.gc_cycles":          {res.traced.goTotal.gcCycles / float64(len(res.traced.run)), "count"},
		"go.gc_pause_s":         {res.traced.goTotal.gcPause / float64(len(res.traced.run)), "s"},
		"go.gc_cpu_s":           {res.traced.goTotal.gcCPU / float64(len(res.traced.run)), "s"},
	}
	for name, reps := range res.micro {
		m[name] = metric{median(reps), "ns"}
	}
	res.metrics = m
	res.extra = map[string]metric{
		"run_cpu_s (untraced)":   {untracedRun, "s"},
		"run_cpu_s (traced)":     {tracedRun, "s"},
		"adaptive.select_s":      {median(res.layers.selectS), "s"},
		"adaptive.select_ns":     {sel.meanNs(), "ns"},
		"adaptive.select_p99_ns": {sel.quantileNs(0.99), "ns"},
		"profiler.window_fold_s": {median(res.layers.windowFold), "s"},
	}
	for i := range rung {
		res.extra[fmt.Sprintf("rung%d_s (+%s)", i, rungLayers[i])] = metric{rung[i], "s"}
	}
}

func (st *selectTimer) meanNs() float64 {
	if n := st.calls.Load(); n > 0 {
		return float64(st.nanos.Load()) / float64(n)
	}
	return 0
}

// printTable writes the per-layer table and the attribution check.
func (res *tracedResult) printTable(out io.Writer, workload string) {
	fmt.Fprintf(out, "== %s: per-layer cost (traced run)\n", workload)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-38s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	names = names[:0]
	for n := range res.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-38s %14.6g %s\n", n, res.extra[n].Value, res.extra[n].Unit)
	}
	m := res.metrics
	sum := m["collections.base_s"].Value
	for _, l := range rungLayers[1:] {
		sum += m[l+".ablation_s"].Value
	}
	run := res.extra["run_cpu_s (untraced)"].Value
	diff := (sum - run) / run
	verdict := "within"
	if diff > runBound || diff < -runBound {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(out, "  attribution: base + sum(ablation) = %.6g s vs untraced run_cpu_s %.6g s: %+.1f%%, %s the run_ref_x bound of %.0f%%\n",
		sum, run, 100*diff, verdict, 100*runBound)
	fmt.Fprintf(out, "  in-run vs ablation: select %.6g s vs adaptive.ablation_s %.6g s; flush %.6g s vs profiler.ablation_s %.6g s; gc walk %.6g s vs heap.ablation_s %.6g s\n",
		res.extra["adaptive.select_s"].Value, m["adaptive.ablation_s"].Value,
		m["profiler.flush_s"].Value, m["profiler.ablation_s"].Value,
		m["heap.gc_walk_s"].Value, m["heap.ablation_s"].Value)
	for _, s := range res.spans {
		fmt.Fprintf(out, "  span %-10s count %6d total %.6g s self %.6g s\n", s.Name, s.Count, s.Total, s.Self)
	}
}
