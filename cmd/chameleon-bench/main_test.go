package main

import (
	"bytes"
	"testing"

	"chameleon/internal/cli"
	"chameleon/internal/cli/clitest"
)

func TestUnknownExperimentIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := command.Run([]string{"-experiment", "fig99"}, &stdout, &stderr); code != cli.Usage {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, cli.Usage, stderr.String())
	}
	if stdout.Len() > 0 {
		t.Errorf("an unknown experiment ran something:\n%s", stdout.String())
	}
}

func TestUsageListsEveryFlag(t *testing.T) {
	clitest.CheckUsage(t, command)
}
