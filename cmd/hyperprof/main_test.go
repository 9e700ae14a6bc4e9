package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when re-invoked by runCLI, so the flag rules
// are tested through the real exit path.
func TestMain(m *testing.M) {
	if os.Getenv("HYPERPROF_TEST_MAIN") == "1" {
		os.Args = append([]string{"hyperprof"}, strings.Fields(os.Getenv("HYPERPROF_TEST_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs hyperprof with args in a subprocess and returns its exit code
// and stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "HYPERPROF_TEST_MAIN=1", "HYPERPROF_TEST_ARGS="+strings.Join(args, " "))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// Flags that would silently do nothing exit 1 before any study runs, naming
// the studies that do accept them.
func TestShapeAndObsFlagsRejectedWhereUnused(t *testing.T) {
	for _, study := range []string{"char", "obs", "safety", "partition", "fleet", "pipeline"} {
		for _, flag := range []string{"-burst", "-diurnal"} {
			code, stderr := runCLI(t, "-study="+study, flag)
			if code != 1 || !strings.Contains(stderr, "-study=resilience and -study=overload") {
				t.Errorf("-study=%s %s: exit %d, stderr %q; want exit 1 naming resilience and overload", study, flag, code, stderr)
			}
		}
	}
	for _, study := range []string{"char", "safety", "partition", "fleet"} {
		if code, stderr := runCLI(t, "-study="+study, "-obs"); code != 1 || !strings.Contains(stderr, "do not apply") {
			t.Errorf("-study=%s -obs: exit %d, stderr %q; want exit 1", study, code, stderr)
		}
	}
}
