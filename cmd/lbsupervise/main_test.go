package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// LBSUPERVISE_RUN_MAIN set it runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("LBSUPERVISE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI executes the command with args and returns its combined
// output and exit error.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LBSUPERVISE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestOutOfRangeFaultNodeExitsWithIndexError: a plan crashing a node
// the tree does not have must abort as a config error, not run a
// healthy round and print an accepted allocation.
func TestOutOfRangeFaultNodeExitsWithIndexError(t *testing.T) {
	out, err := runCLI(t, "-n", "4", "-faults", "crash=99")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1; output:\n%s", err, out)
	}
	if !strings.Contains(out, "faults: node 99 out of range [0, 4)") {
		t.Errorf("output lacks the index error:\n%s", out)
	}
	if strings.Contains(out, "Accepted allocation") {
		t.Errorf("round accepted despite the bad plan:\n%s", out)
	}

	// The same plan inside the tree is a valid degraded round.
	if out, err := runCLI(t, "-n", "4", "-faults", "crash=3"); err != nil {
		t.Fatalf("crash=3: %v\n%s", err, out)
	}
}
