package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// returning builds a command whose body returns err and records the
// positional arguments and the -v flag it saw.
func returning(err error, seen *[]string, v *bool) *Command {
	return &Command{
		Name:     "prog",
		Synopsis: "prog [flags]",
		Exits:    map[int]string{BadInput: "an input does not load"},
		Setup: func(fs *flag.FlagSet) Body {
			vp := fs.Bool("v", false, "verbose")
			return func(args []string, _, _ io.Writer) error {
				if seen != nil {
					*seen, *v = args, *vp
				}
				return err
			}
		},
	}
}

func TestRunMapsErrorsToStatus(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		want       int
		wantStderr string
	}{
		{"success", nil, OK, ""},
		{"plain error", errors.New("boom"), Failure, "prog: boom\n"},
		{"status carried", Errorf(BadInput, "bad %s", "file"), BadInput, "prog: bad file\n"},
		{"status survives wrapping", Exit(Assert, errors.New("x")), Assert, "prog: x\n"},
		{"silent", Exit(Failure, nil), Failure, ""},
		{"one prefix per line", Exit(BadInput, errors.New("a\nb")), BadInput, "prog: a\nprog: b\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := returning(c.err, nil, nil).Run(nil, &stdout, &stderr); got != c.want {
				t.Errorf("status = %d, want %d", got, c.want)
			}
			if stderr.String() != c.wantStderr {
				t.Errorf("stderr = %q, want %q", stderr.String(), c.wantStderr)
			}
		})
	}
}

func TestUsageErrorPrintsGeneratedUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := returning(Errorf(Usage, "no input"), nil, nil).Run(nil, &stdout, &stderr); got != Usage {
		t.Fatalf("status = %d, want %d", got, Usage)
	}
	out := stderr.String()
	for _, want := range []string{
		"prog: no input\n", "usage: prog [flags]\n", "\n  -v\tverbose\n",
		"exit codes:\n  0  success\n  1  runtime failure\n  2  usage error\n  3  an input does not load\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stderr lacks %q:\n%s", want, out)
		}
	}
	if got := returning(nil, nil, nil).Run([]string{"-nope"}, &stdout, &stderr); got != Usage {
		t.Errorf("unknown flag: status = %d, want %d", got, Usage)
	}
	if got := returning(nil, nil, nil).Run([]string{"-h"}, &stdout, &stderr); got != OK {
		t.Errorf("-h: status = %d, want %d", got, OK)
	}
}

func TestSubcommands(t *testing.T) {
	var seen []string
	var v bool
	sub := returning(nil, &seen, &v)
	sub.Name, sub.Summary = "do", "do a thing"
	c := &Command{Name: "prog", Synopsis: "prog <command>", Exits: map[int]string{Vocab: "vocabulary"},
		Subcommands: []*Command{sub}}

	var stdout, stderr bytes.Buffer
	if got := c.Run([]string{"do", "a", "b", "-v"}, &stdout, &stderr); got != OK {
		t.Fatalf("status = %d, stderr %s", got, stderr.String())
	}
	if strings.Join(seen, ",") != "a,b" || !v {
		t.Errorf("leading positionals: args %v, -v %v; want [a b] true", seen, v)
	}
	if got := c.Run([]string{"do", "-v", "c"}, &stdout, &stderr); got != OK || strings.Join(seen, ",") != "c" {
		t.Errorf("trailing positional: status %d, args %v", got, seen)
	}
	if got := c.Run([]string{"help"}, &stdout, &stderr); got != OK || !strings.Contains(stdout.String(), "  do       do a thing\n") {
		t.Errorf("help: status %d, stdout %q", got, stdout.String())
	}
	for _, args := range [][]string{nil, {"undo"}} {
		stderr.Reset()
		if got := c.Run(args, &stdout, &stderr); got != Usage {
			t.Errorf("%v: status = %d, want %d", args, got, Usage)
		}
	}
	if !strings.HasPrefix(stderr.String(), `prog: unknown command "undo"`) {
		t.Errorf("unknown command stderr = %q", stderr.String())
	}
	// A subcommand reports under the program's name and exit table.
	stderr.Reset()
	sub.Setup = returning(errors.New("boom"), nil, nil).Setup
	if got := c.Run([]string{"do"}, &stdout, &stderr); got != Failure || stderr.String() != "prog: boom\n" {
		t.Errorf("subcommand error: status %d, stderr %q", got, stderr.String())
	}
	stderr.Reset()
	c.Run([]string{"do", "-h"}, &stdout, &stderr)
	if !strings.Contains(stderr.String(), "  4  vocabulary\n") {
		t.Errorf("subcommand usage lacks the parent's exit table:\n%s", stderr.String())
	}
}

// status runs err through a command and returns the exit status.
func status(err error) int {
	return returning(err, nil, nil).Run(nil, io.Discard, io.Discard)
}

func TestRuleSourceLoad(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.cham", "ArrayList : maxSize > X -> LinkedList\n")
	noParse := write("noparse.cham", "this is not : a rule ->")
	vocab := write("vocab.cham", "ArrayList : #frob > X -> LinkedList\n")
	absent := filepath.Join(dir, "absent.cham")

	if rs, err := (&RuleSource{}).Load(nil, Split); rs != nil || err != nil {
		t.Errorf("no source: %v, %v; want nil, nil", rs, err)
	}
	for _, s := range []RuleSource{{Builtin: true}, {Extended: true}, {File: good}} {
		if rs, err := s.Load(nil, Split); err != nil || rs == nil || len(rs.Rules) == 0 {
			t.Errorf("%+v: %v, %v", s, rs, err)
		}
	}
	cases := []struct {
		src         RuleSource
		split, as3  int
		description string
	}{
		{RuleSource{File: good, Extended: true}, Usage, Usage, "two sources"},
		{RuleSource{Builtin: true, Extended: true}, Usage, Usage, "two shipped sets"},
		{RuleSource{File: absent}, Failure, BadInput, "unreadable"},
		{RuleSource{File: noParse}, BadInput, BadInput, "does not parse"},
		{RuleSource{File: vocab}, Vocab, BadInput, "fails vocabulary checks"},
	}
	for _, c := range cases {
		_, err := c.src.Load(nil, Split)
		if got := status(err); got != c.split {
			t.Errorf("%s, Split: status %d, want %d", c.description, got, c.split)
		}
		_, err = c.src.Load(nil, BadInput)
		if got := status(err); got != c.as3 {
			t.Errorf("%s, BadInput: status %d, want %d", c.description, got, c.as3)
		}
	}
	if got := (&RuleSource{File: good}).Label(); got != good {
		t.Errorf("file label = %q", got)
	}
	if got := (&RuleSource{Extended: true}).Label(); got != "<extended>" {
		t.Errorf("extended label = %q", got)
	}
}
