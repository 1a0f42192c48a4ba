package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command: with
// LBSERVE_RUN_MAIN set it runs main on the remaining arguments.
func TestMain(m *testing.M) {
	if os.Getenv("LBSERVE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI executes the command with args and returns its combined
// output and exit status. A run that outlives the timeout (a -listen
// that started serving) is killed and reports status -1.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LBSERVE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("run %v: %v", args, err)
	return "", 0
}

// TestNoModeExitsWithUsage: without -listen, -health or -wal-demo
// there is nothing to run.
func TestNoModeExitsWithUsage(t *testing.T) {
	out, code := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "usage: lbserve") || !strings.Contains(out, "-listen") {
		t.Errorf("output lacks the usage text:\n%s", out)
	}
}

// TestWALDemoRecoversBitIdentical runs the crash/restart demo at a
// small size: the recovered epoch must match the pre-crash seal.
func TestWALDemoRecoversBitIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	out, code := runCLI(t, "-wal-demo", "-wal-dir", dir, "-agents", "2000", "-ops", "20000")
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "bit-identical to pre-crash seal: true") {
		t.Errorf("output lacks the bit-identical verdict:\n%s", out)
	}
}

// TestHealthDemoRuns: the chaos demo completes a short run.
func TestHealthDemoRuns(t *testing.T) {
	out, code := runCLI(t, "-health", "-ticks", "20")
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "after 20 ticks") {
		t.Errorf("output lacks the final census:\n%s", out)
	}
}

// TestListenRejectsUnknownSyncPolicy: a bad -wal-sync is a config
// error reported before the server starts, naming the valid policies,
// with or without a -wal-dir.
func TestListenRejectsUnknownSyncPolicy(t *testing.T) {
	for _, args := range [][]string{
		{"-listen", "127.0.0.1:0", "-wal-dir", t.TempDir(), "-wal-sync", "interval"},
		{"-listen", "127.0.0.1:0", "-wal-sync", "bogus"},
	} {
		out, code := runCLI(t, args...)
		if code != 1 {
			t.Fatalf("%v: exit %d, want 1; output:\n%s", args, code, out)
		}
		if !strings.Contains(out, "batch, seal or none") {
			t.Errorf("%v: output does not name the accepted policies:\n%s", args, out)
		}
		if strings.Contains(out, "serving on") {
			t.Errorf("%v: server started despite the bad policy:\n%s", args, out)
		}
	}
}

// TestWALDemoRejectsTooFewAgents: every demo worker rebids its own id
// stripe, so fewer agents than workers is a config error, not a panic.
func TestWALDemoRejectsTooFewAgents(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	out, code := runCLI(t, "-wal-demo", "-wal-dir", dir, "-agents", "4")
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "need -agents >= 8") {
		t.Errorf("output lacks the config error:\n%s", out)
	}
}
