package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/chaos"
	"chameleon/internal/cli"
	"chameleon/internal/cli/clitest"
)

func TestUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if got := command.Run([]string{"-bogus"}, &out, &errb); got != cli.Usage {
		t.Fatalf("unknown flag: exit %d, want %d", got, cli.Usage)
	}
	if got := command.Run([]string{"stray"}, &out, &errb); got != cli.Usage {
		t.Fatalf("stray arg: exit %d, want %d", got, cli.Usage)
	}
	if got := command.Run([]string{"-seeds", "0"}, &out, &errb); got != cli.Usage {
		t.Fatalf("-seeds 0: exit %d, want %d", got, cli.Usage)
	}
}

func TestList(t *testing.T) {
	var out, errb strings.Builder
	if got := command.Run([]string{"-list"}, &out, &errb); got != cli.OK {
		t.Fatalf("exit %d, stderr %s", got, errb.String())
	}
	for _, want := range []string{"phaseshift", "fleet", "rule-panic", "ingest-delay", chaos.AuditNoWedge} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSoakCleanTree: a small soak over two scenarios passes on an
// unbroken tree and reports PASS.
func TestSoakCleanTree(t *testing.T) {
	var out, errb strings.Builder
	code := command.Run([]string{"-scenarios", "phaseshift,fleet", "-seeds", "2", "-out", t.TempDir()}, &out, &errb)
	if code != cli.OK {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("no PASS line:\n%s", out.String())
	}
}

// TestReplayKnownGood: a generated schedule with no recorded violation
// replays clean and exits 0 — the CI replay-smoke path.
func TestReplayKnownGood(t *testing.T) {
	s := chaos.Generate(3, chaos.ScenarioServer, 5)
	path := filepath.Join(t.TempDir(), "good.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := command.Run([]string{"-replay", path}, &out, &errb); code != cli.OK {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "REPLAY PASS") {
		t.Fatalf("no REPLAY PASS:\n%s", out.String())
	}
}

// TestReplayMismatchExits3: a schedule claiming a violation the tree no
// longer exhibits must exit 3 — stale reproducers fail loudly.
func TestReplayMismatchExits3(t *testing.T) {
	s := chaos.Generate(3, chaos.ScenarioServer, 5)
	s.Violation = chaos.AuditNoWedge // lie: the clean tree will not wedge
	path := filepath.Join(t.TempDir(), "stale.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := command.Run([]string{"-replay", path}, &out, &errb); code != cli.Assert {
		t.Fatalf("exit %d, want %d\n%s", code, cli.Assert, out.String())
	}
	if !strings.Contains(out.String(), "REPLAY FAIL") {
		t.Fatalf("no REPLAY FAIL:\n%s", out.String())
	}
}

func TestReplayUnreadableExits1(t *testing.T) {
	var out, errb strings.Builder
	if code := command.Run([]string{"-replay", filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != cli.Failure {
		t.Fatalf("exit %d, want %d", code, cli.Failure)
	}
	// Malformed JSON is also a runtime failure, not a crash.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := command.Run([]string{"-replay", bad}, &out, &errb); code != cli.Failure {
		t.Fatalf("malformed: exit %d, want %d", code, cli.Failure)
	}
}

// TestJSONOutput: -json emits one parseable object per run line.
func TestJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	code := command.Run([]string{"-scenarios", "contextstorm", "-seeds", "1", "-json", "-out", t.TempDir()}, &out, &errb)
	if code != cli.OK {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "{") || !strings.Contains(first, `"checksum"`) {
		t.Fatalf("first line is not a result object: %s", first)
	}
}

func TestUsageListsEveryFlag(t *testing.T) {
	clitest.CheckUsage(t, command)
}
