// Command chameleon-bench regenerates the paper's evaluation figures and
// tables (§5) against the simulated substrate:
//
//	fig2  — TVLA: collections as % of live data per GC cycle
//	fig3  — TVLA: top allocation contexts + suggestions (§2.1 report)
//	fig6  — minimal-heap improvement per benchmark
//	fig7  — running-time improvement per benchmark
//	fig8  — bloat: the collections spike
//	sweep — §2.3 hybrid conversion-threshold sweep on TVLA
//	calibrate — §3.3.1 per-environment rule-constant calibration
//	plan  — §3.3.2 tool-applied plan: profile -> plan -> re-run
//	auto  — §5.4 fully-automatic-mode overhead (TVLA vs PMD)
//	all   — everything above
//
// The timed experiments (fig7, sweep, auto) report the median of -reps
// repetitions. The cost of each instrumentation layer is measured
// by costbench/ (see costbench/README.md), not here.
//
// Usage: chameleon-bench -experiment fig6 [-scale N] [-reps R]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"chameleon/internal/cli"
	"chameleon/internal/experiments"
	"chameleon/internal/workloads"
)

var command = &cli.Command{
	Name:     "chameleon-bench",
	Synopsis: "chameleon-bench [-experiment E] [-scale N] [-reps R]",
	Setup:    setup,
}

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}

func setup(fs *flag.FlagSet) cli.Body {
	experiment := fs.String("experiment", "all", "fig2|fig3|fig6|fig7|fig8|sweep|calibrate|plan|auto|all")
	scale := fs.Int("scale", 0, "override every workload's scale (0 = defaults)")
	reps := fs.Int("reps", 3, "timing repetitions (median is reported)")
	return func(_ []string, stdout, _ io.Writer) error {
		scales := map[string]int{}
		if *scale > 0 {
			for _, s := range workloads.All() {
				scales[s.Name] = *scale
			}
		}
		steps := []struct {
			name, title string
			run         func() error
		}{
			{"fig2", "Fig. 2: TVLA collections as % of live data per GC cycle", func() error {
				pts, err := experiments.Fig2(*scale)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, experiments.FormatSeries(pts, len(pts)/40+1))
				return nil
			}},
			{"fig3", "Fig. 3 + §2.1: TVLA top contexts and suggestions", func() error {
				res, err := experiments.Fig3(*scale)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, res.Format())
				return nil
			}},
			{"fig6", "Fig. 6: minimal-heap improvement per benchmark", func() error {
				rows, err := experiments.Fig6(scales)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, experiments.FormatFig6(rows))
				return nil
			}},
			{"fig7", "Fig. 7: running-time improvement per benchmark", func() error {
				rows, err := experiments.Fig7(scales, *reps)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, experiments.FormatFig7(rows))
				return nil
			}},
			{"fig8", "Fig. 8: bloat collections spike", func() error {
				pts, err := experiments.Fig8(*scale)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, experiments.FormatSeries(pts, len(pts)/40+1))
				return nil
			}},
			{"sweep", "§2.3: SizeAdapting conversion-threshold sweep on TVLA", func() error {
				rows, base, err := experiments.Sweep(nil, *scale, *reps)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, experiments.FormatSweep(rows, base))
				return nil
			}},
			{"calibrate", "§3.3.1: per-environment rule-constant calibration (Z)", func() error {
				fmt.Fprint(stdout, experiments.FormatCalibration(experiments.Calibrate(nil, 0, *reps)))
				return nil
			}},
			{"plan", "§3.3.2: tool-applied plan (profile -> plan -> re-run)", func() error {
				for _, name := range []string{"tvla", "findbugs"} {
					r, err := experiments.ProfileThenApply(name, *scale)
					if err != nil {
						return err
					}
					fmt.Fprint(stdout, experiments.FormatPlanResult(r))
					fmt.Fprintln(stdout)
				}
				return nil
			}},
			{"auto", "§5.4: fully-automatic online mode overhead", func() error {
				rows, err := experiments.AutoOverhead(scales, *reps)
				if err != nil {
					return err
				}
				fmt.Fprint(stdout, experiments.FormatAuto(rows))
				return nil
			}},
		}
		known := *experiment == "all"
		for _, st := range steps {
			known = known || st.name == *experiment
		}
		if !known {
			return cli.Errorf(cli.Usage, "unknown experiment %q", *experiment)
		}
		for _, st := range steps {
			if *experiment != st.name && *experiment != "all" {
				continue
			}
			fmt.Fprintf(stdout, "== %s ==\n", st.title)
			if err := st.run(); err != nil {
				return fmt.Errorf("%s: %w", st.title, err)
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}
}
