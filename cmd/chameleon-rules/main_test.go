package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/cli"
	"chameleon/internal/cli/clitest"
	"chameleon/internal/rules"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const buggyFile = "examples/badrules/buggy.cham"

// runCLI invokes the command from the repository root (paths in goldens and
// diagnostics stay stable) and returns the exit status with both streams.
func runCLI(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	t.Chdir("../..")
	var out, errb bytes.Buffer
	status = command.Run(args, &out, &errb)
	return status, out.String(), errb.String()
}

func checkGolden(t *testing.T, got, goldenPath string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// The buggy example demonstrates every diagnostic; its text rendering is the
// user-facing contract.
func TestVetBuggyGoldenText(t *testing.T) {
	status, stdout, _ := runCLI(t, "vet", buggyFile)
	if status != cli.Failure {
		t.Errorf("status = %d, want %d (the file has error-severity findings)", status, cli.Failure)
	}
	checkGolden(t, stdout, filepath.Join("cmd/chameleon-rules/testdata", "vet_buggy.txt"))
	// One diagnostic per rule, one lint kind each.
	for _, code := range []string{
		rules.CodeUnsatisfiable, rules.CodeAlwaysTrue, rules.CodeShadowed,
		rules.CodeVacuousOp, rules.CodeSelfReplace, rules.CodeZeroDivisor,
		rules.CodeStableUnread, rules.CodeStableConflict,
	} {
		if !strings.Contains(stdout, "["+code+"]") {
			t.Errorf("text output missing [%s]", code)
		}
	}
	if !strings.Contains(stdout, "8 rules: 2 errors, 6 warnings") {
		t.Errorf("summary line missing or wrong:\n%s", stdout)
	}
}

func TestVetBuggyGoldenJSON(t *testing.T) {
	status, stdout, _ := runCLI(t, "vet", "-json", buggyFile)
	if status != cli.Failure {
		t.Errorf("status = %d, want %d", status, cli.Failure)
	}
	checkGolden(t, stdout, filepath.Join("cmd/chameleon-rules/testdata", "vet_buggy.json"))
	var diags []rules.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v", err)
	}
	if len(diags) != 8 {
		t.Errorf("decoded %d diagnostics, want 8", len(diags))
	}
}

// The shipped rule sets must vet clean through the CLI path too.
func TestVetShippedSets(t *testing.T) {
	for _, fl := range []string{"-builtin", "-extended"} {
		status, stdout, stderr := runCLI(t, "vet", fl)
		if status != cli.OK {
			t.Errorf("vet %s: status = %d, stderr: %s", fl, status, stderr)
		}
		if !strings.Contains(stdout, "0 errors, 0 warnings") {
			t.Errorf("vet %s: summary = %q, want clean", fl, stdout)
		}
	}
}

// -json must emit an array even when there is nothing to report.
func TestVetCleanJSONIsEmptyArray(t *testing.T) {
	status, stdout, _ := runCLI(t, "vet", "-json", "-builtin")
	if status != cli.OK {
		t.Errorf("status = %d, want 0", status)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}

// -strict promotes warnings to a failing status; without it warning-only
// files pass.
func TestVetStrict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warn.cham")
	if err := os.WriteFile(path, []byte("ArrayList : maxSize > Y -> ArrayList\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := runCLI(t, "vet", path); status != cli.OK {
		t.Errorf("warnings without -strict: status = %d, want 0", status)
	}
	if status, _, _ := runCLI(t, "vet", "-strict", path); status != cli.Failure {
		t.Errorf("warnings with -strict: status = %d, want 1", status)
	}
}

// check owns the vocabulary; the buggy file is vocabulary-clean, so check
// passes and merely relays the vet advisories on stderr.
func TestCheckBuggyPassesWithAdvisories(t *testing.T) {
	status, stdout, stderr := runCLI(t, "check", buggyFile)
	if status != cli.OK {
		t.Errorf("status = %d, want 0 (vocabulary is valid)", status)
	}
	if !strings.Contains(stdout, "8 rules OK") {
		t.Errorf("stdout = %q, want the OK line", stdout)
	}
	if !strings.Contains(stderr, "["+rules.CodeUnsatisfiable+"]") {
		t.Errorf("stderr should carry the vet advisories, got: %q", stderr)
	}
}

func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	noParse := filepath.Join(dir, "noparse.cham")
	if err := os.WriteFile(noParse, []byte("this is not : a rule ->"), 0o644); err != nil {
		t.Fatal(err)
	}
	badVocab := filepath.Join(dir, "vocab.cham")
	if err := os.WriteFile(badVocab, []byte("ArrayList : #frob > X -> LinkedList\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no arguments", nil, cli.Usage},
		{"unknown command", []string{"frobnicate"}, cli.Usage},
		{"vet without input", []string{"vet"}, cli.Usage},
		{"vet conflicting inputs", []string{"vet", "-builtin", "-extended"}, cli.Usage},
		{"help", []string{"help"}, cli.OK},
		{"missing file", []string{"vet", filepath.Join(dir, "absent.cham")}, cli.Failure},
		{"parse error", []string{"vet", noParse}, cli.BadInput},
		{"parse error via check", []string{"check", noParse}, cli.BadInput},
		{"vocabulary error", []string{"vet", badVocab}, cli.Vocab},
		{"vocabulary error via check", []string{"check", badVocab}, cli.Vocab},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, _ := runCLI(t, c.args...)
			if status != c.want {
				t.Errorf("command.Run(%v) = %d, want %d", c.args, status, c.want)
			}
		})
	}
}

// fmt over the buggy file must round-trip: its output re-parses and prints
// identically.
func TestFmtRoundTrip(t *testing.T) {
	status, stdout, stderr := runCLI(t, "fmt", buggyFile)
	if status != cli.OK {
		t.Fatalf("status = %d, stderr: %s", status, stderr)
	}
	rs, err := rules.Parse(stdout)
	if err != nil {
		t.Fatalf("fmt output does not re-parse: %v", err)
	}
	if rules.Print(rs) != stdout {
		t.Error("fmt output is not a fixed point of Print")
	}
}

func TestUsageListsEveryFlag(t *testing.T) {
	clitest.CheckUsage(t, command)
}
