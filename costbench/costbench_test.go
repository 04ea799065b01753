package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"chameleon/internal/workloads"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tiny returns a copy of w at a scale small enough for a unit test.
func tiny(w *workload) *workload {
	c := *w
	switch c.spec {
	case "pmd":
		c.scale = 2
	case "tvla":
		c.scale = 6
	case "contextstorm":
		c.scale = 2
		c.top.MaxContexts = workloads.StormColdContexts(2) - 1
	}
	return &c
}

func checkMetrics(t *testing.T, got map[string]metric, names map[string]string) {
	t.Helper()
	if len(got) != len(names) {
		t.Errorf("%d metrics, BENCHMARK.json names %d", len(got), len(names))
	}
	for name, unit := range names {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks the correctness gate and the metric sets BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(allWorkloads))
	}
	for i, bw := range b.Workloads {
		w := allWorkloads[i]
		if bw.Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, bw.Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			chk := newChecker(w, io.Discard)
			u, err := runUntraced(w, 1, 100*time.Millisecond, chk)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, u.metrics, endToEnd)
			tr, err := runTraced(w, 2, 300*time.Millisecond, chk)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, tr.metrics, perLayer)
			if chk.failed != 0 || chk.attempted == 0 {
				t.Errorf("checksums: %d of %d failed", chk.failed, chk.attempted)
			}
		})
	}
}

// TestReferenceChecksums checks the recorded constants against the plain
// runtime at the benchmark's own scales.
func TestReferenceChecksums(t *testing.T) {
	for _, w := range allWorkloads {
		want, ok := referenceChecksum(w)
		if !ok {
			t.Fatalf("%s: no recorded reference checksum", w.name)
		}
		if got := w.unit(newPlain()); got != want {
			t.Errorf("%s: plain checksum %#x, recorded %#x", w.name, got, want)
		}
	}
}

// TestFrontendBatchLoop checks that every batch of the closed loop on one
// long-lived instrumented session reproduces a single FrontendRun of the
// same 32 requests on a fresh plain runtime.
func TestFrontendBatchLoop(t *testing.T) {
	w, err := lookupWorkload("frontend-online")
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.FrontendRun(newPlain().rt, workloads.Baseline, frontendBatchScale, 1, 0)
	if want.Requests != 32 {
		t.Fatalf("a batch is %d requests, want one 32-request generation", want.Requests)
	}
	in := w.newSession(w.top)
	for i := 0; i < 300; i++ {
		if got := w.unit(in); got != want.Checksum {
			t.Fatalf("batch %d: checksum %#x, single run %#x", i, got, want.Checksum)
		}
	}
	if in.sess.Selector.Decides() == 0 {
		t.Error("the online selector decided nothing in 300 batches")
	}
}

// TestDecoratorKeepsDecisions checks that the traced run's Select
// decorator returns decisions unchanged: on the single-goroutine
// workloads the replacement count and checksum match an untraced run.
func TestDecoratorKeepsDecisions(t *testing.T) {
	for _, name := range []string{"pmd-auto", "tvla-auto"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		plain := w.newSession(w.top)
		plainSum := w.unit(plain)
		traced := w.newSession(w.top)
		sel := &selectTimer{}
		sel.wrap(traced.rt)
		tracedSum := w.unit(traced)
		if tracedSum != plainSum {
			t.Errorf("%s: traced checksum %#x, untraced %#x", name, tracedSum, plainSum)
		}
		a, b := plain.sess.Selector.Replacements(), traced.sess.Selector.Replacements()
		if a != b || a == 0 {
			t.Errorf("%s: replacements untraced %d, traced %d", name, a, b)
		}
		if sel.calls.Load() == 0 {
			t.Errorf("%s: the decorator saw no Select calls", name)
		}
	}
}

// TestRunBound checks that the attribution tolerance is run_ref_x's bound.
func TestRunBound(t *testing.T) {
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		if m.Name == "run_ref_x" {
			if m.Bound != runBound {
				t.Errorf("run_ref_x bound %v in BENCHMARK.json, runBound %v", m.Bound, runBound)
			}
			return
		}
	}
	t.Error("BENCHMARK.json has no run_ref_x")
}

func TestBuckets(t *testing.T) {
	for v := int64(0); v < 1<<20; v += 1 + v/50 {
		i := bucketOf(v)
		if lo, hi := bucketLow(i), bucketLow(i+1); v < lo || v >= hi {
			t.Fatalf("value %d in bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
}
