package dispatch_test

// The coordinator tests re-exec this test binary as the worker subprocess
// (the standard os/exec helper-process pattern): TestMain checks an
// environment variable before running any tests and, when set, serves the
// worker protocol on stdin/stdout instead. Misbehaviour is selected per-unit
// by the request kind, so one worker binary covers the crash, hang, garbage
// and application-error paths.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/dispatch"
	"hyperprof/internal/sim"
)

const workerEnv = "HYPERPROF_DISPATCH_TEST_WORKER"

func TestMain(m *testing.M) {
	switch os.Getenv(workerEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		if err := dispatch.Serve(os.Stdin, os.Stdout, testHandler); err != nil {
			fmt.Fprintln(os.Stderr, "test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	default:
		os.Exit(7)
	}
}

// markerBody parameterizes the fail-once kinds: the first worker to see a
// given marker path misbehaves and records the fact on disk, so the
// respawned worker that retries the unit succeeds.
type markerBody struct {
	Marker string `json:"marker"`
	Value  string `json:"value"`
}

// tripped reports whether the marker was already planted, planting it if not.
func tripped(path string) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	os.WriteFile(path, []byte("x"), 0o644)
	return false
}

func testHandler(kind string, body json.RawMessage) (json.RawMessage, error) {
	var mb markerBody
	json.Unmarshal(body, &mb)
	switch kind {
	case "echo":
		return body, nil
	case "apperr":
		return nil, fmt.Errorf("application rejected %s", string(body))
	case "panic":
		panic("deterministic worker panic")
	case "sim-panic":
		// The panic fires inside a simulation process, after a park, as a
		// broken study's would: it must still reach serveOne's recover.
		k := sim.New()
		k.Go("faulty", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			panic("deterministic sim process panic")
		})
		k.Run()
		return json.Marshal("unreachable")
	case "exit":
		os.Exit(3)
	case "crash-once":
		if !tripped(mb.Marker) {
			os.Exit(3)
		}
		return json.Marshal(mb.Value)
	case "garbage-once":
		if !tripped(mb.Marker) {
			// Corrupt the protocol stream: the coordinator must reject the
			// malformed frame and recycle this worker, not hang or crash.
			os.Stdout.WriteString("this is not a length-prefixed frame")
			os.Exit(0)
		}
		return json.Marshal(mb.Value)
	case "hang":
		time.Sleep(time.Hour)
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// pool builds a coordinator that re-execs this test binary as its worker.
func pool(t *testing.T, workers, retries int, timeout time.Duration) *dispatch.Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &dispatch.Pool{
		Command:     []string{exe},
		Env:         []string{workerEnv + "=serve"},
		Workers:     workers,
		Retries:     retries,
		UnitTimeout: timeout,
	}
}

func raw(s string) json.RawMessage { return json.RawMessage(s) }

func TestPoolEchoInOrder(t *testing.T) {
	p := pool(t, 4, 1, 0)
	var units []dispatch.Unit
	for i := 0; i < 32; i++ {
		units = append(units, dispatch.Unit{Kind: "echo", Body: raw(fmt.Sprintf(`{"i":%d}`, i))})
	}
	got, err := p.Run(units)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(units) {
		t.Fatalf("got %d results, want %d", len(got), len(units))
	}
	for i, g := range got {
		if want := fmt.Sprintf(`{"i":%d}`, i); string(g) != want {
			t.Fatalf("unit %d: got %s, want %s", i, g, want)
		}
	}
}

func TestWorkerCrashMidUnitRetriesThenSucceeds(t *testing.T) {
	p := pool(t, 2, 2, 0)
	body, _ := json.Marshal(markerBody{Marker: t.TempDir() + "/crashed", Value: "recovered"})
	units := []dispatch.Unit{
		{Kind: "echo", Body: raw(`"a"`)},
		{Kind: "crash-once", Body: body},
		{Kind: "echo", Body: raw(`"b"`)},
	}
	got, err := p.Run(units)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[1]) != `"recovered"` {
		t.Fatalf("retried unit returned %s, want %q", got[1], "recovered")
	}
}

func TestWorkerCrashExhaustsRetriesDeterministically(t *testing.T) {
	p := pool(t, 4, 1, 0)
	// Units 1 and 3 always crash their worker; with dynamic scheduling either
	// may fail first, but the surfaced error must be unit 1's.
	units := []dispatch.Unit{
		{Kind: "echo", Body: raw(`"a"`)},
		{Kind: "exit", Body: raw(`{}`)},
		{Kind: "echo", Body: raw(`"b"`)},
		{Kind: "exit", Body: raw(`{}`)},
	}
	_, err := p.Run(units)
	if err == nil {
		t.Fatal("want error from crashing units")
	}
	if !strings.Contains(err.Error(), "unit 1") {
		t.Fatalf("error should name lowest failing unit 1: %v", err)
	}
}

func TestApplicationErrorNotRetried(t *testing.T) {
	p := pool(t, 1, 3, 0)
	marker := t.TempDir() + "/apperr"
	body, _ := json.Marshal(markerBody{Marker: marker})
	// If the pool (wrongly) retried application errors, the marker trick
	// would make a second attempt succeed; instead the first in-band error
	// must surface as-is.
	_, err := p.Run([]dispatch.Unit{{Kind: "apperr", Body: body}})
	if err == nil || !strings.Contains(err.Error(), "application rejected") {
		t.Fatalf("want in-band application error, got %v", err)
	}
}

func TestWorkerPanicIsInBandError(t *testing.T) {
	p := pool(t, 1, 0, 0)
	_, err := p.Run([]dispatch.Unit{{Kind: "panic", Body: raw(`{}`)}})
	if err == nil || !strings.Contains(err.Error(), "deterministic worker panic") {
		t.Fatalf("want panic surfaced as in-band error, got %v", err)
	}
}

// TestSimProcessPanicIsInBandError checks that a panic inside a simulation
// process fails the unit in band, like a handler panic, instead of killing
// the worker: the kernel re-raises it from Run on the handler's goroutine.
func TestSimProcessPanicIsInBandError(t *testing.T) {
	p := pool(t, 1, 0, 0)
	_, err := p.Run([]dispatch.Unit{{Kind: "sim-panic", Body: raw(`{}`)}})
	if err == nil || !strings.Contains(err.Error(), "worker panic on unit") ||
		!strings.Contains(err.Error(), "deterministic sim process panic") {
		t.Fatalf("want sim process panic surfaced as in-band error, got %v", err)
	}
}

func TestMalformedFrameRecyclesWorker(t *testing.T) {
	p := pool(t, 2, 2, 0)
	body, _ := json.Marshal(markerBody{Marker: t.TempDir() + "/garbled", Value: "clean"})
	units := []dispatch.Unit{
		{Kind: "garbage-once", Body: body},
		{Kind: "echo", Body: raw(`"after"`)},
	}
	got, err := p.Run(units)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != `"clean"` || string(got[1]) != `"after"` {
		t.Fatalf("got %s / %s after garbled frame recovery", got[0], got[1])
	}
}

func TestUnitTimeoutKillsUnitNotStudy(t *testing.T) {
	p := pool(t, 2, 1, 300*time.Millisecond)
	units := []dispatch.Unit{
		{Kind: "hang", Body: raw(`{}`)},
		{Kind: "echo", Body: raw(`"alive"`)},
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(units)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("want timeout error for hanging unit")
		}
		if !strings.Contains(err.Error(), "unit 0") || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("want deterministic timeout error naming unit 0, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pool hung instead of timing out the unit")
	}
}

func TestSpawnFailureSurfaces(t *testing.T) {
	p := &dispatch.Pool{Command: []string{"/nonexistent-hyperprof-worker"}, Workers: 1, Retries: 1}
	_, err := p.Run([]dispatch.Unit{{Kind: "echo", Body: raw(`{}`)}})
	if err == nil {
		t.Fatal("want spawn error")
	}
	var pathErr *os.PathError
	if !strings.Contains(err.Error(), "start worker") && !errors.As(err, &pathErr) {
		t.Fatalf("unexpected spawn error: %v", err)
	}
}
