// Package clitest holds the test helpers shared by the chameleon commands.
package clitest

import (
	"bytes"
	"flag"
	"regexp"
	"strings"
	"testing"

	"chameleon/internal/cli"
)

// CheckUsage fails t unless the -h output of c, and of each of its
// subcommands, gives every flag registered on its flag set an entry line
// of its own: a line that starts with whitespace and then -name.
func CheckUsage(t *testing.T, c *cli.Command) {
	t.Helper()
	if c.Subcommands == nil {
		checkUsage(t, c, c, nil)
		return
	}
	for _, sub := range c.Subcommands {
		checkUsage(t, c, sub, []string{sub.Name})
	}
}

func checkUsage(t *testing.T, root, c *cli.Command, prefix []string) {
	t.Helper()
	fs := flag.NewFlagSet(c.Name, flag.ContinueOnError)
	c.Setup(fs)
	args := append(prefix, "-h")
	var out bytes.Buffer
	if status := root.Run(args, &out, &out); status != cli.OK {
		t.Errorf("%s %s: exit %d, want %d", root.Name, strings.Join(args, " "), status, cli.OK)
	}
	fs.VisitAll(func(f *flag.Flag) {
		entry := regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(f.Name) + `(\s|$)`)
		if !entry.Match(out.Bytes()) {
			t.Errorf("%s %s: flag -%s has no entry line in:\n%s", root.Name, strings.Join(args, " "), f.Name, out.String())
		}
	})
}
