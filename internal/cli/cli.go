// Package cli is the scaffold every chameleon command runs on. It owns the
// exit-code contract, the "<prog>: <err>" error report, the Table 2
// rule-source flags (rules.go) and the usage text, which it generates from
// the registered flags so the two cannot drift apart.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// Exit statuses. 0, 1 and 2 mean the same in every command; 3 and 4 are
// declared per command in Command.Exits, under the name that fits it.
const (
	OK       = 0
	Failure  = 1 // runtime failure
	Usage    = 2 // usage error
	BadInput = 3 // an input does not load (chameleon-rules: does not parse)
	Assert   = 3 // an asserted invariant does not hold
	Vocab    = 4 // the rules parse but fail vocabulary checks
)

// Body runs a command once its flags are parsed. args are the positional
// arguments. A nil error is exit 0; an error built by Exit or Errorf exits
// with the status it carries, any other error with Failure.
type Body func(args []string, stdout, stderr io.Writer) error

// Command declares one command (or one subcommand of a command with
// Subcommands).
type Command struct {
	Name     string // the program name, prefix of every error line; a subcommand's dispatch word
	Synopsis string // printed after "usage: "; may run to several lines
	Summary  string // a subcommand's one-line description in its parent's usage
	// Exits gives the meaning of each status beyond the defaults: 0
	// success, 1 runtime failure, 2 usage error. A subcommand uses its
	// parent's.
	Exits map[int]string
	// Setup registers the flags on fs and returns the body that reads
	// them. A command with Subcommands has none.
	Setup       func(fs *flag.FlagSet) Body
	Subcommands []*Command
}

// Run executes one command line and returns the process exit status.
func (c *Command) Run(args []string, stdout, stderr io.Writer) int {
	if c.Subcommands == nil {
		return c.run(nil, args, stdout, stderr)
	}
	if len(args) == 0 {
		c.usage(stderr, nil)
		return Usage
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		c.usage(stdout, nil)
		return OK
	}
	for _, sub := range c.Subcommands {
		if sub.Name != args[0] {
			continue
		}
		s := *sub
		s.Name, s.Exits = c.Name, c.Exits
		// A subcommand's positional arguments may lead its flags
		// ("vet rules.cham -json") as well as trail them.
		rest := args[1:]
		i := 0
		for i < len(rest) && !strings.HasPrefix(rest[i], "-") {
			i++
		}
		return s.run(rest[:i:i], rest[i:], stdout, stderr)
	}
	return c.report(Errorf(Usage, "unknown command %q", args[0]), stderr, func() { c.usage(stderr, nil) })
}

func (c *Command) run(lead, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { c.usage(stderr, fs) }
	body := c.Setup(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return OK
		}
		return Usage // flag has printed the error and the usage
	}
	return c.report(body(append(lead, fs.Args()...), stdout, stderr), stderr, fs.Usage)
}

// report prints err, one "<prog>: " line per line of its message, and
// returns the status it carries. A usage error is followed by the usage.
func (c *Command) report(err error, stderr io.Writer, usage func()) int {
	if err == nil {
		return OK
	}
	status := Failure
	var e *exitError
	if errors.As(err, &e) {
		status = e.status
	}
	if msg := err.Error(); msg != "" {
		for _, line := range strings.Split(msg, "\n") {
			fmt.Fprintf(stderr, "%s: %s\n", c.Name, line)
		}
	}
	if status == Usage {
		usage()
	}
	return status
}

// usage writes the synopsis, the subcommands or the registered flags, and
// the exit-code table.
func (c *Command) usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintf(w, "usage: %s\n", c.Synopsis)
	if c.Subcommands != nil {
		fmt.Fprintln(w, "\ncommands:")
		for _, s := range c.Subcommands {
			fmt.Fprintf(w, "  %-8s %s\n", s.Name, s.Summary)
		}
		fmt.Fprintf(w, "\nRun '%s <command> -h' for a command's flags.\n", c.Name)
	}
	if fs != nil {
		fmt.Fprintln(w, "\nflags:")
		fs.PrintDefaults()
	}
	meaning := map[int]string{OK: "success", Failure: "runtime failure", Usage: "usage error"}
	maps.Copy(meaning, c.Exits)
	fmt.Fprintln(w, "\nexit codes:")
	for _, code := range slices.Sorted(maps.Keys(meaning)) {
		fmt.Fprintf(w, "  %d  %s\n", code, meaning[code])
	}
}

// exitError carries the exit status of the error it wraps.
type exitError struct {
	status int
	err    error
}

func (e *exitError) Error() string {
	if e.err == nil {
		return ""
	}
	return e.err.Error()
}

func (e *exitError) Unwrap() error { return e.err }

// Exit returns an error that makes the command exit with status. A nil err
// exits silently: the command has already said what went wrong.
func Exit(status int, err error) error { return &exitError{status, err} }

// Errorf is Exit with a formatted error.
func Errorf(status int, format string, args ...any) error {
	return Exit(status, fmt.Errorf(format, args...))
}
