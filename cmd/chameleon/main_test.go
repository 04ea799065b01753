package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/cli"
	"chameleon/internal/cli/clitest"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := command.Run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListAndPrintRules(t *testing.T) {
	code, out, errOut := runCLI(t, "-list")
	if code != cli.OK || !strings.Contains(out, "tvla") {
		t.Fatalf("-list: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, out, errOut = runCLI(t, "-print-rules")
	if code != cli.OK || !strings.Contains(out, "LinkedList") {
		t.Fatalf("-print-rules: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

func TestExitCodes(t *testing.T) {
	rulesPath := filepath.Join(t.TempDir(), "r.cham")
	if err := os.WriteFile(rulesPath, []byte("ArrayList : maxSize > 4 -> LinkedList\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown mode", []string{"-mode", "bogus"}, cli.Failure},
		{"workers on a serial workload", []string{"-workload", "tvla", "-workers", "2"}, cli.Failure},
		{"unknown workload", []string{"-workload", "bogus"}, cli.Failure},
		{"unknown flag", []string{"-bogus"}, cli.Usage},
		{"two rule sources", []string{"-rules", rulesPath, "-extended"}, cli.Usage},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if code, _, _ := runCLI(t, c.args...); code != c.want {
				t.Errorf("command.Run(%v) = %d, want %d", c.args, code, c.want)
			}
		})
	}
}

func TestUsageListsEveryFlag(t *testing.T) {
	clitest.CheckUsage(t, command)
}
