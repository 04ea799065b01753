// Command costbench is the repository's benchmark: it measures what
// Chameleon's layers cost, end to end and layer by layer, on four
// workloads, and checks every result against the plain runtime's checksum.
//
//	costbench --workload pmd-auto --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 the per-layer table. The last line of standard output is the
// JSON summary; the line before it is the full record (machine, seed and
// every repetition).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBound is run_ref_x's regression bound in BENCHMARK.json; the traced
// run's attribution check uses it as its tolerance.
const runBound = 0.25

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for every input the benchmark generates")
	secs := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1: traced run with the per-layer table; 0: end-to-end metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "costbench: need --workload {pmd-auto|tvla-auto|frontend-online|contextstorm-governed}, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	sum, rec, err := run(w, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "costbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "costbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "costbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// record is the full result of one run, printed before the summary.
type record struct {
	Workload string               `json:"workload"`
	Traced   bool                 `json:"traced"`
	Machine  machine              `json:"machine"`
	Scale    int                  `json:"scale"`
	Samples  map[string]int       `json:"samples"`
	Reps     map[string][]float64 `json:"repetitions"`
	Spans    []spanTotal          `json:"spans,omitempty"`
	Metrics  map[string]metric    `json:"metrics"`
	// TableOnly holds figures that are recorded (and, for the traced run,
	// printed in the layer table) but not reported as metrics.
	TableOnly map[string]metric `json:"table_only,omitempty"`
}

func run(w *workload, seed uint64, budget time.Duration, traced bool) (summary, record, error) {
	chk := newChecker(w, os.Stdout)
	rec := record{Workload: w.name, Traced: traced, Machine: machineRecord(seed), Scale: w.scale}
	var metrics map[string]metric
	if traced {
		res, err := runTraced(w, seed, budget, chk)
		if err != nil {
			return summary{}, rec, err
		}
		res.printTable(os.Stdout, w.name)
		metrics = res.metrics
		rec.TableOnly = res.extra
		rec.Spans = res.spans
		rec.Samples = map[string]int{"traced_iterations": len(res.traced.run), "untraced_iterations": len(res.untraced.run)}
		rec.Reps = map[string][]float64{"traced_run_cpu_s": res.traced.cpu, "untraced_run_cpu_s": res.untraced.cpu}
		for i, r := range res.rungs {
			rec.Reps[fmt.Sprintf("rung%d_s", i)] = r
			rec.Samples[fmt.Sprintf("rung%d", i)] = len(r)
		}
		for k, v := range res.micro {
			rec.Reps[k] = v
		}
	} else {
		res, err := runUntraced(w, seed, budget, chk)
		if err != nil {
			return summary{}, rec, err
		}
		metrics = res.metrics
		rec.TableOnly = res.extra
		lat := res.inst.latencies()
		rec.Samples = map[string]int{"iterations": len(res.inst.run), "plain_iterations": len(res.plain.run), "latency_units": len(lat), "setups": len(res.setups)}
		rec.Reps = map[string][]float64{
			"run_cpu_s": res.inst.cpu, "plain_cpu_s": res.plain.cpu, "ref_cpu_s": res.ref, "setup_s": res.setups,
			"run_s": res.inst.run, "plain_run_s": res.plain.run,
			"alloc_bytes": res.inst.allocBytes, "allocs": res.inst.allocs,
			"sim_minheap_bytes": res.minHeaps, "sim_gc_cycles": res.inst.simGCs,
		}
	}
	rec.Metrics = metrics
	return summary{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}, rec, nil
}
