// Command chameleon-rules is the toolchain for the Fig. 4 selection-rule
// language:
//
//	chameleon-rules fmt   <rules.cham>                 # parse + pretty-print
//	chameleon-rules check <rules.cham> [-param X=32]   # vocabulary checks
//	chameleon-rules vet   <rules.cham> [-json]         # semantic static analysis
//	chameleon-rules eval  <rules.cham> -profile p.json # offline rule run
//	chameleon-rules explain <rules.cham> -profile p.json -context substr
//	                                                   # trace why rules fire or not
//	chameleon-rules builtin [-extended]                # print the shipped sets
//
// The eval subcommand consumes a profile snapshot written by
// `chameleon -profile-out` and prints the suggestion report without
// re-running the program — the offline half of the paper's workflow.
//
// Run with -h for the commands and the exit-code contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strconv"
	"strings"

	"chameleon/internal/advisor"
	"chameleon/internal/cli"
	"chameleon/internal/profiler"
	"chameleon/internal/rules"
)

var command = &cli.Command{
	Name:     "chameleon-rules",
	Synopsis: "chameleon-rules <command> [arguments]",
	Exits: map[int]string{
		cli.Failure:  "runtime failure, or error-severity vet diagnostics",
		cli.BadInput: "the rules file does not parse",
		cli.Vocab:    "the rules parse but fail vocabulary checks",
	},
	Subcommands: []*cli.Command{
		{Name: "fmt", Synopsis: "chameleon-rules fmt <rules.cham> [-w]",
			Summary: "parse and pretty-print", Setup: setupFmt},
		{Name: "check", Synopsis: "chameleon-rules check <rules.cham> [flags]",
			Summary: "parse and check the vocabulary", Setup: setupCheck},
		{Name: "vet", Synopsis: "chameleon-rules vet <rules.cham>|-builtin|-extended [flags]",
			Summary: "semantic static analysis (see docs/ANALYSIS.md)", Setup: setupVet},
		{Name: "eval", Synopsis: "chameleon-rules eval <rules.cham> -profile p.json [flags]",
			Summary: "offline suggestion report from a snapshot", Setup: setupEval},
		{Name: "explain", Synopsis: "chameleon-rules explain <rules.cham> -profile p.json [flags]",
			Summary: "trace why rules fire or not", Setup: setupExplain},
		{Name: "builtin", Synopsis: "chameleon-rules builtin [-extended]",
			Summary: "print the shipped rule sets", Setup: setupBuiltin},
	},
}

func main() {
	os.Exit(command.Run(os.Args[1:], os.Stdout, os.Stderr))
}

// paramFlags collects repeated -param NAME=VALUE flags on top of the
// default environment.
type paramFlags struct{ params rules.Params }

func (p *paramFlags) String() string { return fmt.Sprint(p.params) }

func (p *paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	p.params[strings.TrimSpace(name)] = v
	return nil
}

func paramFlag(fs *flag.FlagSet) *paramFlags {
	p := &paramFlags{params: maps.Clone(rules.DefaultParams)}
	fs.Var(p, "param", "bind a rule parameter NAME=VALUE (repeatable)")
	return p
}

func setupFmt(fs *flag.FlagSet) cli.Body {
	write := fs.Bool("w", false, "write the formatted output back to the file")
	return func(args []string, stdout, _ io.Writer) error {
		if len(args) == 0 {
			return cli.Errorf(cli.Usage, "fmt: expected a rules file")
		}
		rs, err := cli.ReadRules(args[0])
		if err != nil {
			return err
		}
		out := rules.Print(rs)
		if *write {
			return os.WriteFile(args[0], []byte(out), 0o644)
		}
		fmt.Fprint(stdout, out)
		return nil
	}
}

func setupCheck(fs *flag.FlagSet) cli.Body {
	params := paramFlag(fs)
	return func(args []string, stdout, stderr io.Writer) error {
		if len(args) == 0 {
			return cli.Errorf(cli.Usage, "check: expected a rules file")
		}
		rs, err := (&cli.RuleSource{File: args[0]}).Load(params.params, cli.Split)
		if err != nil {
			return err
		}
		// Semantic advisories ride along on stderr but do not affect the
		// status: check answers "is the vocabulary valid", vet answers "do
		// the rules make sense" and owns the failing exit codes.
		for _, d := range rules.Vet(rs, params.params) {
			fmt.Fprintln(stderr, d)
		}
		fmt.Fprintf(stdout, "%d rules OK; parameters referenced: %v\n", len(rs.Rules), rules.ParamsOf(rs))
		return nil
	}
}

// setupVet runs the semantic analyzer over a rules file or a shipped set.
// Vocabulary errors gate the analysis: Vet's verdicts assume every name
// resolves, so an unknown op or unbound parameter exits 4 before vetting.
func setupVet(fs *flag.FlagSet) cli.Body {
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	strict := fs.Bool("strict", false, "exit 1 on warnings, not only errors")
	src := cli.RuleFlags(fs, cli.BuiltinFlag|cli.ExtendedFlag)
	params := paramFlag(fs)
	return func(args []string, stdout, _ io.Writer) error {
		if len(args) > 0 {
			src.File = args[0]
		}
		rs, err := src.Load(params.params, cli.Split)
		if err != nil {
			return err
		}
		if rs == nil {
			return cli.Errorf(cli.Usage, "vet: expected a rules file (or -builtin / -extended)")
		}
		diags := rules.Vet(rs, params.params)
		errs, warnings := 0, 0
		for _, d := range diags {
			if d.Severity == rules.SevError {
				errs++
			} else {
				warnings++
			}
		}
		if *jsonOut {
			if diags == nil {
				diags = []rules.Diagnostic{} // always an array, never null
			}
			b, err := json.MarshalIndent(diags, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(b))
		} else {
			for _, d := range diags {
				fmt.Fprintln(stdout, d)
			}
			fmt.Fprintf(stdout, "%s: %d rules: %d errors, %d warnings\n",
				src.Label(), len(rs.Rules), errs, warnings)
		}
		if errs > 0 || (*strict && warnings > 0) {
			return cli.Exit(cli.Failure, nil)
		}
		return nil
	}
}

func setupEval(fs *flag.FlagSet) cli.Body {
	profilePath := fs.String("profile", "", "profile snapshot JSON (from chameleon -profile-out)")
	top := fs.Int("top", 10, "show the top-K contexts")
	minPotential := fs.Int64("min-potential", 0, "suppress space replacements below this potential (bytes; -1 disables)")
	params := paramFlag(fs)
	return func(args []string, stdout, _ io.Writer) error {
		if len(args) == 0 || *profilePath == "" {
			return cli.Errorf(cli.Usage, "eval: expected a rules file and -profile snapshot")
		}
		rs, err := (&cli.RuleSource{File: args[0]}).Load(params.params, cli.Split)
		if err != nil {
			return err
		}
		// Semantic findings (shadowed or never-firing rules skew the
		// suggestions) reach the user through the report itself: Advise
		// runs Vet and Format leads with the diagnostics.
		profiles, err := profiler.ReadProfilesFile(*profilePath)
		if err != nil {
			return err
		}
		rep, err := advisor.Advise(profiles, advisor.Options{
			Rules:        rs,
			Params:       params.params,
			Top:          *top,
			MinPotential: *minPotential,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.Format())
		return nil
	}
}

// setupExplain traces rule evaluation against a profiled context: why
// each rule fired or did not.
func setupExplain(fs *flag.FlagSet) cli.Body {
	profilePath := fs.String("profile", "", "profile snapshot JSON (from chameleon -profile-out)")
	ctxSubstr := fs.String("context", "", "substring selecting the context(s) to explain")
	firedOnly := fs.Bool("fired", false, "show only rules that fired")
	params := paramFlag(fs)
	return func(args []string, stdout, stderr io.Writer) error {
		if len(args) == 0 || *profilePath == "" {
			return cli.Errorf(cli.Usage, "explain: expected a rules file and -profile snapshot")
		}
		rs, err := cli.ReadRules(args[0])
		if err != nil {
			return err
		}
		profiles, err := profiler.ReadProfilesFile(*profilePath)
		if err != nil {
			return err
		}
		opts := rules.EvalOptions{Params: params.params}
		shown := 0
		for _, p := range profiles {
			if *ctxSubstr != "" && !strings.Contains(p.Context.String(), *ctxSubstr) {
				continue
			}
			fmt.Fprintf(stdout, "context: %s (declared %s, avgMaxSize %.1f, potential %d)\n",
				p.Context, p.Declared, p.MaxSizeAvg, p.Potential())
			for _, r := range rs.Rules {
				ex := rules.Explain(r, p, opts)
				if *firedOnly && !ex.Fired {
					continue
				}
				if !ex.SrcMatched && *ctxSubstr == "" {
					continue // keep unfiltered output readable
				}
				fmt.Fprint(stdout, ex.String())
			}
			fmt.Fprintln(stdout)
			shown++
		}
		if shown == 0 {
			fmt.Fprintln(stderr, "chameleon-rules: no contexts matched")
		}
		return nil
	}
}

func setupBuiltin(fs *flag.FlagSet) cli.Body {
	extended := fs.Bool("extended", false, "include the extension rules (SinglyLinkedList, open addressing)")
	return func(_ []string, stdout, _ io.Writer) error {
		rs := rules.Builtin()
		if *extended {
			rs = rules.Extended()
		}
		fmt.Fprint(stdout, rules.Print(rs))
		return nil
	}
}
