// Command chameleon-sites is the static half of the chameleon workflow:
// it discovers every collection allocation site in a Go program, proves
// or refutes each site's specialization safety, and emits the versioned
// site manifest that joins static sites to runtime profile snapshots
// (internal/analysis, docs/ANALYSIS.md).
//
//	chameleon-sites ./...                          # analyze, print findings
//	chameleon-sites -manifest sites.json ./...     # also write the manifest
//	chameleon-sites -builtin ./...                 # cross-check the builtin rules
//	chameleon-sites -profile p.json ./...          # cross-check a snapshot
//
// Run with -h for the flags and the exit-code contract.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chameleon/internal/analysis"
	"chameleon/internal/cli"
	"chameleon/internal/profiler"
)

var command = &cli.Command{
	Name: "chameleon-sites",
	Synopsis: `chameleon-sites [flags] [packages]

Discovers chameleon collection allocation sites, classifies each as safe
or unsafe for ahead-of-time specialization, and cross-checks the site
manifest against a rule set (S009/S010) and a profile snapshot (S011)
(docs/ANALYSIS.md).`,
	Exits: map[int]string{
		cli.Failure:  "runtime failure, or error-severity diagnostics (warnings too with -strict)",
		cli.BadInput: "an input does not load: packages fail to type-check, the rules file does not parse or fails vocabulary checks, or the snapshot does not read",
	},
	Setup: setup,
}

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}

func setup(fs *flag.FlagSet) cli.Body {
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	manifestPath := fs.String("manifest", "", "write the site manifest JSON to this path")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	all := fs.Bool("all", false, "print info-level findings too, not only warnings and errors")
	strict := fs.Bool("strict", false, "exit 1 on warnings, not only errors")
	src := cli.RuleFlags(fs, cli.RulesFlag|cli.BuiltinFlag|cli.ExtendedFlag)
	profilePath := fs.String("profile", "", "cross-check a profile snapshot (S011 stale contexts)")
	return func(patterns []string, stdout, stderr io.Writer) error {
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		rs, err := src.Load(nil, cli.BadInput)
		if err != nil {
			return err
		}
		opts := analysis.Options{Rules: rs, RuleFile: src.Label()}
		if *profilePath != "" {
			if opts.Profiles, err = profiler.ReadProfilesFile(*profilePath); err != nil {
				return cli.Exit(cli.BadInput, err)
			}
			opts.SnapshotFile = *profilePath
		}

		res, err := analysis.Analyze(*dir, patterns, opts)
		var le *analysis.LoadError
		if errors.As(err, &le) {
			return cli.Exit(cli.BadInput, err)
		}
		if err != nil {
			return err
		}
		if *manifestPath != "" {
			if err := analysis.WriteManifestFile(*manifestPath, res.Manifest()); err != nil {
				return err
			}
		}

		errs, warnings, infos := 0, 0, 0
		var shown []analysis.Diagnostic
		for _, d := range res.Diagnostics {
			switch d.Severity {
			case analysis.SevError:
				errs++
			case analysis.SevWarning:
				warnings++
			default:
				infos++
				if !*all {
					continue
				}
			}
			shown = append(shown, d)
		}
		if *jsonOut {
			if shown == nil {
				shown = []analysis.Diagnostic{} // always an array, never null
			}
			b, err := json.MarshalIndent(shown, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(b))
		} else {
			for _, d := range shown {
				fmt.Fprintln(stdout, d)
			}
			safe := 0
			for _, s := range res.Sites {
				if s.Safe {
					safe++
				}
			}
			fmt.Fprintf(stdout, "%d packages: %d sites (%d safe): %d errors, %d warnings, %d infos\n",
				len(res.Packages), len(res.Sites), safe, errs, warnings, infos)
		}
		if errs > 0 || (*strict && warnings > 0) {
			return cli.Exit(cli.Failure, nil)
		}
		return nil
	}
}
