// Command chameleon-apply is the ahead-of-time specializer: it joins a
// profile/decision snapshot (chameleon -profile-out) against the
// allocation sites of a Go program (the chameleon-sites analysis,
// re-run in process) and rewrites every safe, decided site — fully
// decided sites move to the concrete NewFixed* constructors and stop
// profiling; capacity-only decisions keep their profiled constructor
// with an updated Cap. Unsafe, unlabeled, forced, and undecided sites
// are left untouched and reported with the reason (docs/SPECIALIZE.md).
//
//	chameleon-apply -profile p.json ./...            # classify, print plan
//	chameleon-apply -profile p.json -diff ./...      # print the unified diff
//	chameleon-apply -profile p.json -write ./...     # rewrite in place
//	chameleon-apply -profile p.json -verify pmd -write ./...
//	                                                 # rewrite only if the
//	                                                 # rewritten tree's checksum
//	                                                 # matches the reference run
//
// Run with -h for the flags and the exit-code contract.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chameleon/internal/analysis"
	"chameleon/internal/apply"
	"chameleon/internal/cli"
	"chameleon/internal/profiler"
)

var command = &cli.Command{
	Name: "chameleon-apply",
	Synopsis: `chameleon-apply -profile F [flags] [packages]

Rewrites safe, decided allocation sites ahead of time from a
profile/decision snapshot: replacements move to the concrete NewFixed*
constructors (profiling removed), capacity decisions update Cap in place
(docs/SPECIALIZE.md). The advisor evaluates the builtin rule set unless
-rules or -extended chooses another.`,
	Exits: map[int]string{
		cli.Failure:  "runtime failure, stale snapshot contexts, or a verify mismatch",
		cli.BadInput: "an input does not load (packages, snapshot, rules file, manifest)",
	},
	Setup: setup,
}

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}

func setup(fs *flag.FlagSet) cli.Body {
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	profilePath := fs.String("profile", "", "decision/profile snapshot to apply (required)")
	src := cli.RuleFlags(fs, cli.RulesFlag|cli.BuiltinFlag|cli.ExtendedFlag)
	minPotential := fs.Int64("min-potential", -1, "advisor space-potential gate in bytes; -1 disables it (source rewrites are churn-motivated too), 0 selects the advisor default")
	manifestPath := fs.String("manifest", "", "gate rewrites against a chameleon-sites manifest; divergence is exit 3")
	diff := fs.Bool("diff", false, "print the rewrite as a unified diff")
	write := fs.Bool("write", false, "write rewritten files in place (temp+rename)")
	verify := fs.String("verify", "", "run this workload against the rewritten tree and require its checksum to match the reference run")
	scale := fs.Int("scale", 0, "workload scale for -verify (0 = the workload default)")
	all := fs.Bool("all", false, "list skipped sites too, with reasons")
	allowStale := fs.Bool("allow-stale", false, "tolerate snapshot contexts that join no site (default: exit 1)")
	return func(patterns []string, stdout, stderr io.Writer) error {
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		if *profilePath == "" {
			return cli.Errorf(cli.Usage, "-profile is required")
		}
		opts := apply.Options{Dir: *dir, Patterns: patterns, MinPotential: *minPotential}
		var err error
		if opts.Rules, err = src.Load(nil, cli.BadInput); err != nil {
			return err
		}
		if opts.Profiles, err = profiler.ReadProfilesFile(*profilePath); err != nil {
			return cli.Exit(cli.BadInput, err)
		}
		if *manifestPath != "" {
			if opts.Manifest, err = analysis.ReadManifestFile(*manifestPath); err != nil {
				return cli.Exit(cli.BadInput, err)
			}
		}

		res, err := apply.Run(opts)
		var le *analysis.LoadError
		var mm *apply.ManifestMismatchError
		if errors.As(err, &le) || errors.As(err, &mm) {
			return cli.Exit(cli.BadInput, err)
		}
		if err != nil {
			return err
		}

		// A decided context that joins no site means the snapshot and the
		// tree disagree — rewriting against it would apply someone else's
		// decisions. Refuse before any output side effect.
		for _, label := range res.Stale {
			fmt.Fprintf(stderr, "chameleon-apply: stale snapshot context %s joins no allocation site\n", label)
		}
		if len(res.Stale) > 0 && !*allowStale {
			return errors.New("refusing to rewrite from a stale snapshot (-allow-stale to override)")
		}

		if *verify != "" {
			v, err := apply.Verify(*dir, res.Files, *verify, *scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, v)
			if !v.OK() {
				return errors.New("rewritten tree diverges from the reference run; not writing")
			}
		}

		switch {
		case *diff:
			fmt.Fprint(stdout, apply.Diff(*dir, res.Files))
		case !*write:
			listDecisions(stdout, res, *all)
		}
		if *write {
			if err := apply.WriteFiles(res.Files); err != nil {
				return err
			}
		}
		if !*diff {
			fmt.Fprintf(stdout, "%d sites: %d replaced, %d retuned, %d skipped; %d files rewritten\n",
				len(res.Sites), res.Replaced(), res.Retuned(), res.Skipped(), len(res.Files))
		}
		return nil
	}
}

// listDecisions prints one line per rewrite decision (and per skip with
// -all), in source order.
func listDecisions(w io.Writer, res *apply.Result, all bool) {
	for _, d := range res.Sites {
		if !d.Status.Rewrites() && !all {
			continue
		}
		fmt.Fprintf(w, "%s: %s: %s\n", d.Site.ID, d.Status, d.Reason)
	}
}
