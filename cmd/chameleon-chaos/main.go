// Command chameleon-chaos is the deterministic fault-schedule
// orchestrator: it generates seeded pseudo-random schedules of fault
// events over every injection seam in the runtime (internal/faults),
// runs the registered workload scenarios under each schedule, and
// audits system invariants — checksum unchanged vs a fault-free
// reference, accounting conservation, no-wedge liveness, panic
// containment (docs/ROBUSTNESS.md).
//
// When a schedule trips an auditor, the failing schedule is shrunk by
// delta debugging to a minimal reproducer and written as replayable
// JSON; -replay re-executes a reproducer and verifies it still trips
// the same auditor, deterministically.
//
//	chameleon-chaos -seeds 32                      # full soak, all scenarios
//	chameleon-chaos -scenarios fleet,server -seeds 8
//	chameleon-chaos -seeds 8 -out artifacts/       # reproducers land here
//	chameleon-chaos -replay repro-fleet-7.json     # re-run a reproducer
//	chameleon-chaos -list                          # scenarios, seams, auditors
//
// Run with -h for the flags and the exit-code contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"chameleon/internal/chaos"
	"chameleon/internal/cli"
)

var command = &cli.Command{
	Name:     "chameleon-chaos",
	Synopsis: "chameleon-chaos [flags]",
	Exits: map[int]string{
		cli.OK:      "success: every run passed every auditor (or -replay reproduced)",
		cli.Failure: "runtime failure (unreadable schedule, unwritable artifact)",
		cli.Assert:  "invariant violation found (soak), or -replay no longer reproduces",
	},
	Setup: setup,
}

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}

func setup(fs *flag.FlagSet) cli.Body {
	seeds := fs.Uint64("seeds", 8, "seeds to run per scenario (1..N)")
	scenarios := fs.String("scenarios", "", "comma-separated scenarios (default: all)")
	events := fs.Int("events", 6, "fault events per generated schedule")
	out := fs.String("out", ".", "directory for shrunk reproducer artifacts")
	noShrink := fs.Bool("no-shrink", false, "report violations without shrinking")
	replay := fs.String("replay", "", "re-run this reproducer file and verify it still trips its auditor")
	list := fs.Bool("list", false, "print scenarios, seams and auditors, then exit")
	asJSON := fs.Bool("json", false, "emit one JSON result object per run")
	return func(args []string, stdout, _ io.Writer) error {
		if len(args) > 0 {
			return cli.Errorf(cli.Usage, "unexpected arguments: %s", strings.Join(args, " "))
		}
		if *list {
			fmt.Fprintf(stdout, "scenarios: %s\n", strings.Join(chaos.Scenarios(), " "))
			fmt.Fprintf(stdout, "seams:     %s\n", strings.Join(chaos.Seams(), " "))
			fmt.Fprintf(stdout, "auditors:  %s\n", strings.Join(chaos.Auditors(), " "))
			return nil
		}

		h := chaos.NewHarness()
		if *replay != "" {
			return runReplay(h, *replay, *asJSON, stdout)
		}

		scs := chaos.Scenarios()
		if *scenarios != "" {
			scs = strings.Split(*scenarios, ",")
		}
		if *seeds < 1 || *events < 1 {
			return cli.Errorf(cli.Usage, "-seeds and -events must be >= 1")
		}

		violations := 0
		for _, sc := range scs {
			sc = strings.TrimSpace(sc)
			for seed := uint64(1); seed <= *seeds; seed++ {
				s := chaos.Generate(seed, sc, *events)
				res, err := h.Run(s)
				if err != nil {
					return cli.Errorf(cli.Usage, "%s seed %d: %w", sc, seed, err)
				}
				printResult(stdout, res, *asJSON)
				if len(res.Violations) == 0 {
					continue
				}
				violations++
				auditor := res.Outcome()
				repro := s
				if !*noShrink {
					repro = h.Shrink(s, auditor)
					fmt.Fprintf(stdout, "  shrunk: %d -> %d event(s)\n", len(s.Events), len(repro.Events))
				} else {
					repro.Violation = auditor
				}
				path := filepath.Join(*out, fmt.Sprintf("repro-%s-%d.json", sc, seed))
				if err := repro.WriteFile(path); err != nil {
					return fmt.Errorf("writing reproducer: %w", err)
				}
				fmt.Fprintf(stdout, "  reproducer: %s (replay with -replay %s)\n", path, path)
			}
		}
		if violations > 0 {
			fmt.Fprintf(stdout, "FAIL: %d schedule(s) violated invariants\n", violations)
			return cli.Exit(cli.Assert, nil)
		}
		fmt.Fprintf(stdout, "PASS: %d scenario(s) x %d seed(s), all auditors clean\n", len(scs), *seeds)
		return nil
	}
}

// runReplay re-executes a reproducer and checks that it still trips the
// auditor recorded in its Violation field. A reproducer whose Violation
// is empty (a known-good schedule) must instead pass every auditor —
// that is the CI replay-smoke mode.
func runReplay(h *chaos.Harness, path string, asJSON bool, stdout io.Writer) error {
	s, err := chaos.ReadScheduleFile(path)
	if err != nil {
		return err
	}
	res, err := h.Run(s)
	if err != nil {
		return err
	}
	printResult(stdout, res, asJSON)
	got := res.Outcome()
	if got == s.Violation {
		if s.Violation == "" {
			fmt.Fprintf(stdout, "REPLAY PASS: known-good schedule stays clean\n")
		} else {
			fmt.Fprintf(stdout, "REPLAY PASS: reproduces %q deterministically\n", s.Violation)
		}
		return nil
	}
	fmt.Fprintf(stdout, "REPLAY FAIL: recorded violation %q, this run produced %q\n", s.Violation, got)
	return cli.Exit(cli.Assert, nil)
}

// printResult renders one run: scenario, seed, per-seam fire tallies and
// the verdict, or the full result as a JSON object with -json.
func printResult(w io.Writer, res *chaos.Result, asJSON bool) {
	if asJSON {
		b, _ := json.Marshal(res)
		fmt.Fprintln(w, string(b))
		return
	}
	verdict := "ok"
	if len(res.Violations) > 0 {
		verdict = "VIOLATION " + res.Outcome()
		for _, v := range res.Violations {
			verdict += fmt.Sprintf(" [%s: %s]", v.Auditor, v.Detail)
		}
	}
	fmt.Fprintf(w, "%-12s seed %-3d events %d  fires %s  %s\n",
		res.Schedule.Scenario, res.Schedule.Seed, len(res.Schedule.Events), fireSummary(res), verdict)
}

// fireSummary compacts the per-seam tallies into seam:fires/consults
// pairs, skipping seams that were never consulted.
func fireSummary(res *chaos.Result) string {
	var parts []string
	for _, seam := range chaos.Seams() {
		f, ok := res.Fires[seam]
		if !ok || f.Consults == 0 {
			continue
		}
		if f.Fires > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", seam, f.Fires))
		}
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}
