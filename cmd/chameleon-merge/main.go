// Command chameleon-merge is the fleet aggregation tool: it combines
// profile snapshots from many processes into one fleet profile
// (internal/fleet, docs/FLEET.md), and in -watch mode runs the
// self-healing ingest service that keeps doing so continuously —
// per-source health ledger, quarantine with doubling backoff, periodic
// re-advise, optional HTTP push endpoint.
//
//	chameleon-merge a.json b.json c.json            # merge, print report
//	chameleon-merge -o fleet.json *.json            # write the fleet snapshot
//	chameleon-merge -advise *.json                  # advisor over the aggregate
//	chameleon-merge -watch dir -interval 2s         # ingest service
//	chameleon-merge -watch dir -http :8377          # + push endpoint/ledger API
//	chameleon-merge -watch dir -rounds 20 -inject -assert-recovery
//	                                                # fault-injection soak (CI)
//
// Corrupt or torn inputs never abort a merge: damage degrades the source
// it came from, per record, and every drop is accounted in the report.
//
// Run with -h for the flags and the exit-code contract.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chameleon/internal/advisor"
	"chameleon/internal/cli"
	"chameleon/internal/faults"
	"chameleon/internal/fleet"
	"chameleon/internal/profiler"
)

var command = &cli.Command{
	Name: "chameleon-merge",
	Synopsis: `chameleon-merge [flags] <snapshot.json>...
       chameleon-merge -watch <dir> [flags]

The first form merges snapshots and prints the report; the second runs
the ingest service (flags marked "watch:"). -advise evaluates the builtin
rule set unless -rules or -extended chooses another.`,
	Exits: map[int]string{
		cli.Failure: "runtime failure (unreadable directory or rules file, write failure, every source dead)",
		cli.Assert:  "-assert-recovery failed: a source wedged in quarantine, recovery never happened, or the service stopped merging",
	},
	Setup: setup,
}

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}

func setup(fs *flag.FlagSet) cli.Body {
	var cfg watchConfig
	fs.StringVar(&cfg.out, "o", "", "write the merged fleet snapshot to this file (v2 format)")
	advise := fs.Bool("advise", false, "run the advisor over the merged profile and print the report")
	asJSON := fs.Bool("json", false, "emit the merge report (and advice with -advise) as JSON")
	fs.IntVar(&cfg.advise.Top, "top", 0, "limit the advisor report to the top-K contexts (0 = all)")
	src := cli.RuleFlags(fs, cli.RulesFlag|cli.ExtendedFlag)
	fs.Int64Var(&cfg.merge.MinSourceEvidence, "min-evidence", 0, "per-source evidence needed to join skew detection (0 = default 8)")
	fs.Float64Var(&cfg.merge.MinConfidence, "min-confidence", 0, "cross-source agreement below which a context is conflicted (0 = default 0.7)")

	fs.StringVar(&cfg.dir, "watch", "", "ingest service mode: watch this snapshot directory")
	fs.DurationVar(&cfg.interval, "interval", time.Second, "watch: seconds between ingest rounds")
	fs.IntVar(&cfg.rounds, "rounds", 0, "watch: stop after N rounds (0 = run until interrupted)")
	fs.StringVar(&cfg.httpAddr, "http", "", "watch: serve POST /ingest/{source} and GET /ledger on this address")
	fs.StringVar(&cfg.ledgerOut, "ledger-out", "", "watch: write the final health ledger as JSON to this file")
	fs.IntVar(&cfg.failLimit, "fail-limit", 0, "watch: consecutive hard failures before quarantine (0 = default 3)")
	fs.IntVar(&cfg.backoff, "backoff", 0, "watch: initial quarantine length in rounds, doubling per quarantine (0 = default 4)")
	fs.IntVar(&cfg.stale, "stale-rounds", 0, "watch: rounds without a fresh delivery before a source goes stale (0 = never)")
	fs.BoolVar(&cfg.redeliver, "redeliver", false, "watch: re-read sources every round even when unchanged")
	fs.BoolVar(&cfg.inject, "inject", false, "watch: arm fault hooks by source name (*torn*, *flaky*, *outage*); implies -redeliver")
	fs.BoolVar(&cfg.assertRecovery, "assert-recovery", false, "watch: exit 3 unless a quarantine happened, recovered, and no source ended wedged")
	return func(paths []string, stdout, stderr io.Writer) error {
		var err error
		if cfg.advise.Rules, err = src.Load(nil, cli.Failure); err != nil {
			return err
		}
		switch {
		case cfg.dir != "" && len(paths) > 0:
			return cli.Errorf(cli.Usage, "-watch takes no snapshot arguments")
		case cfg.dir != "":
			cfg.redeliver = cfg.redeliver || cfg.inject
			return runWatch(cfg, stdout, stderr)
		case len(paths) == 0:
			return cli.Errorf(cli.Usage, "no snapshots given")
		}
		return runMerge(paths, cfg.merge, cfg.advise, cfg.out, *advise, *asJSON, stdout, stderr)
	}
}

// runMerge is the one-shot mode: read every snapshot, merge, report.
func runMerge(paths []string, mergeOpts fleet.Options, advOpts advisor.Options, out string, advise, asJSON bool, stdout, stderr io.Writer) error {
	var sources []fleet.Source
	for _, path := range paths {
		s, err := fleet.ReadSourceFile(path)
		if err != nil {
			// Degrade, don't die: the source is merged as failed and the
			// report says why.
			fmt.Fprintf(stderr, "chameleon-merge: %s: %v (source degraded)\n", path, err)
		}
		sources = append(sources, s)
	}
	res := fleet.Merge(sources, mergeOpts)
	if res.Report.FailedSources == len(sources) {
		return errors.New("every source failed; nothing to merge")
	}

	var rep *advisor.Report
	if advise {
		var err error
		if rep, err = res.Advise(advOpts); err != nil {
			return err
		}
	}
	if asJSON {
		payload := struct {
			Report      fleet.MergeReport             `json:"report"`
			Annotations map[string]advisor.Annotation `json:"annotations"`
			Advice      *advisor.Report               `json:"advice,omitempty"`
		}{res.Report, res.Annotations, rep}
		b, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprintf(stdout, "merged: %s\n", res.Report)
		for _, sr := range res.Report.Sources {
			line := fmt.Sprintf("  %-24s %d record(s)", sr.Name, sr.Records)
			if sr.Duplicates > 0 {
				line += fmt.Sprintf(", %d duplicate(s)", sr.Duplicates)
			}
			if sr.Dropped > 0 {
				line += fmt.Sprintf(", %d dropped", sr.Dropped)
			}
			if sr.Err != "" {
				line += " FAILED: " + sr.Err
			}
			fmt.Fprintln(stdout, line)
		}
		if len(res.Report.Conflicted) > 0 {
			fmt.Fprintf(stdout, "conflicted contexts (excluded from plans):\n")
			for _, ctx := range res.Report.Conflicted {
				fmt.Fprintf(stdout, "  %s\n    %s\n", ctx, res.Annotations[ctx])
			}
		}
		if rep != nil {
			fmt.Fprintf(stdout, "\nfleet advice:\n%s", rep.Format())
		}
	}

	if out != "" {
		if err := profiler.WriteProfilesFile(out, res.Profiles); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "chameleon-merge: fleet snapshot written to %s\n", out)
	}
	return nil
}

type watchConfig struct {
	dir            string
	interval       time.Duration
	rounds         int
	httpAddr       string
	ledgerOut      string
	out            string
	merge          fleet.Options
	advise         advisor.Options
	failLimit      int
	backoff        int
	stale          int
	redeliver      bool
	inject         bool
	assertRecovery bool
}

// runWatch is the ingest-service mode.
func runWatch(cfg watchConfig, stdout, stderr io.Writer) error {
	if info, err := os.Stat(cfg.dir); err != nil || !info.IsDir() {
		return fmt.Errorf("-watch %s: not a directory", cfg.dir)
	}
	if cfg.inject {
		armInjection(cfg.dir, stderr)
		defer faults.Disarm()
	}

	w := fleet.NewWatcher(fleet.IngestOptions{
		Dir:          cfg.dir,
		Merge:        cfg.merge,
		Advise:       cfg.advise,
		FailLimit:    cfg.failLimit,
		BackoffTicks: cfg.backoff,
		StaleTicks:   cfg.stale,
		Redeliver:    cfg.redeliver,
	})

	var srv *http.Server
	if cfg.httpAddr != "" {
		ln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return err
		}
		srv = &http.Server{Handler: w.Handler()}
		go func() { _ = srv.Serve(ln) }()
		fmt.Fprintf(stderr, "chameleon-merge: ingest endpoint on %s (POST /ingest/{source}, GET /ledger)\n", ln.Addr())
		defer srv.Close()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	// Soak bookkeeping for -assert-recovery.
	sawQuarantine, sawRecovery := false, false
	everQuarantined := make(map[string]bool)
	emptyRounds, totalRounds := 0, 0
	var last fleet.TickResult

	tick := func() error {
		res, err := w.Tick()
		if err != nil {
			return err
		}
		last = res
		totalRounds++
		if res.Merged == nil {
			emptyRounds++
		}
		var states []string
		for _, s := range res.Ledger.Sources {
			if s.State == "quarantined" {
				sawQuarantine = true
				everQuarantined[s.Name] = true
			} else if everQuarantined[s.Name] && s.State == "healthy" {
				sawRecovery = true
			}
			states = append(states, fmt.Sprintf("%s=%s", strings.TrimSuffix(s.Name, ".json"), s.State))
		}
		fmt.Fprintf(stdout, "round %d: %d context(s), %d conflicted, %d published; %s\n",
			res.Tick, res.Contexts, res.Conflicted, res.Published, strings.Join(states, " "))
		return nil
	}

	timer := time.NewTicker(cfg.interval)
	defer timer.Stop()
	if err := tick(); err != nil { // round 1 immediately; then on the interval
		return err
	}
loop:
	for cfg.rounds == 0 || totalRounds < cfg.rounds {
		select {
		case <-stop:
			fmt.Fprintln(stderr, "chameleon-merge: interrupted")
			break loop
		case <-timer.C:
			if err := tick(); err != nil {
				return err
			}
		}
	}

	if cfg.ledgerOut != "" {
		b, err := json.MarshalIndent(w.Ledger(), "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.ledgerOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "chameleon-merge: health ledger written to %s\n", cfg.ledgerOut)
	}
	if cfg.out != "" && last.Merged != nil {
		if err := profiler.WriteProfilesFile(cfg.out, last.Merged.Profiles); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "chameleon-merge: fleet snapshot written to %s\n", cfg.out)
	}

	if cfg.assertRecovery {
		var wedged []string
		for _, s := range w.Ledger().Sources {
			if s.State == "quarantined" {
				wedged = append(wedged, s.Name)
			}
		}
		switch {
		case !sawQuarantine:
			return cli.Errorf(cli.Assert, "ASSERT: no source was ever quarantined (faults did not bite)")
		case !sawRecovery:
			return cli.Errorf(cli.Assert, "ASSERT: no quarantined source ever recovered")
		case len(wedged) > 0:
			return cli.Errorf(cli.Assert, "ASSERT: source(s) ended wedged in quarantine: %s", strings.Join(wedged, ", "))
		case emptyRounds > 0:
			return cli.Errorf(cli.Assert, "ASSERT: %d of %d rounds merged nothing", emptyRounds, totalRounds)
		}
		fmt.Fprintf(stderr, "chameleon-merge: recovery asserted over %d rounds (quarantine observed and healed, no wedge)\n", totalRounds)
	}
	return nil
}

// armInjection arms per-source ingest faults keyed by file name: any
// source whose name contains "torn" delivers a 60%% prefix, "flaky"
// alternates valid and corrupt deliveries, "outage" delivers garbage for
// its first three reads and then goes quiet.
func armInjection(dir string, stderr io.Writer) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var hooks []func(string, []byte) ([]byte, bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		switch {
		case strings.Contains(name, "torn"):
			hooks = append(hooks, faults.TornPrefix(name, 0.6))
			fmt.Fprintf(stderr, "chameleon-merge: fault armed: %s delivers torn prefixes\n", name)
		case strings.Contains(name, "flaky"):
			hooks = append(hooks, faults.AlternateCorrupt(name))
			fmt.Fprintf(stderr, "chameleon-merge: fault armed: %s alternates valid/corrupt\n", name)
		case strings.Contains(name, "outage"):
			hooks = append(hooks, faults.CorruptFirstN(name, 3))
			fmt.Fprintf(stderr, "chameleon-merge: fault armed: %s starts with a 3-delivery outage\n", name)
		}
	}
	if len(hooks) == 0 {
		fmt.Fprintln(stderr, "chameleon-merge: -inject: no *torn*/*flaky*/*outage* sources found; nothing armed")
		return
	}
	faults.Arm(&faults.Plan{IngestSnapshot: func(src string, data []byte) ([]byte, bool) {
		for _, h := range hooks {
			if m, fired := h(src, data); fired {
				return m, true
			}
		}
		return data, false
	}})
}
