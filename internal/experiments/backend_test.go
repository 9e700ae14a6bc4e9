package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// These tests pin the backends' core guarantee: a study's exported bytes are
// identical whether its units run in-process (Backend "") or across worker
// subprocesses ("exec"), and every unit and result survives the JSON round
// trip the exec backend puts it through. The exec backend re-invokes this
// test binary: TestMain hijacks the process into a protocol worker when the
// coordinator's env var is set, so no separate worker binary is built.

// backendWorkerEnv selects the test binary's alter ego when it is re-executed
// as an exec-backend worker: "serve" answers the protocol, "crash" simulates
// a worker that dies on startup.
const backendWorkerEnv = "HYPERPROF_EXPERIMENTS_TEST_WORKER"

func TestMain(m *testing.M) {
	switch os.Getenv(backendWorkerEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		if err := ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "crash":
		os.Exit(7)
	default:
		os.Exit(7)
	}
}

// withBackend returns cfg retargeted at the named backend, pointing the exec
// pool back at this test binary in worker mode.
func withBackend(t *testing.T, cfg StudyConfig, backend string) StudyConfig {
	t.Helper()
	cfg.Backend = backend
	if backend == BackendExec {
		exe, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Exec.Command = []string{exe}
		cfg.Exec.Env = []string{backendWorkerEnv + "=serve"}
		cfg.Exec.Workers = 2
	}
	return cfg
}

// studyBackends are the two execution paths every cross-backend test
// compares.
var studyBackends = []string{"", BackendExec}

func backendSafetyConfig() StudyConfig {
	cfg := DefaultSafetyStudyConfig()
	cfg.Check.Seeds = 2
	cfg.Ops = PlatformOps{Spanner: 120, BigTable: 120, BigQuery: 12}
	if testing.Short() {
		cfg.Ops = PlatformOps{Spanner: 60, BigTable: 60, BigQuery: 6}
	}
	return cfg
}

func TestSafetyStudyIdenticalAcrossBackends(t *testing.T) {
	var want []byte
	for _, backend := range studyBackends {
		cfg := withBackend(t, backendSafetyConfig(), backend)
		s, err := cfg.Safety()
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		var buf bytes.Buffer
		buf.WriteString(RenderSafety(s))
		for _, p := range taxonomy.Platforms() {
			fmt.Fprintf(&buf, "%s marks: %+v\n", p, s.Marks[p])
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("backend %q diverged (first diff at %d):\n--- want ---\n%s\n--- got ---\n%s",
				backend, firstDiff(want, buf.Bytes()), want, buf.Bytes())
		}
	}
}

func TestLatencyStudyIdenticalAcrossBackends(t *testing.T) {
	rates := []float64{400, 800, 1200}
	ops := 150
	if testing.Short() {
		ops = 80
	}
	var want []byte
	for _, backend := range studyBackends {
		cfg := withBackend(t, StudyConfig{Seed: 1, Parallel: 2}, backend)
		points, err := cfg.Latency(rates, ops)
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		got := []byte(RenderLatency(points))
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("backend %q diverged:\n--- want ---\n%s\n--- got ---\n%s", backend, want, got)
		}
	}
}

func TestResilienceStudyIdenticalAcrossBackends(t *testing.T) {
	mk := func() StudyConfig {
		cfg := DefaultResilienceStudyConfig()
		cfg.Ops = PlatformOps{Spanner: 200, BigTable: 200, BigQuery: 24}
		if testing.Short() {
			cfg.Ops = PlatformOps{Spanner: 100, BigTable: 100, BigQuery: 12}
		}
		cfg.Obs.Enabled = true
		return cfg
	}
	var want []byte
	for _, backend := range studyBackends {
		cfg := withBackend(t, mk(), backend)
		r, err := cfg.Resilience()
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		var buf bytes.Buffer
		buf.WriteString(RenderResilience(r))
		// The faulted arms' traces, fault marks and metric series cross the
		// process boundary on the exec backend; export them all.
		for _, p := range taxonomy.Platforms() {
			chrome, err := trace.ExportChrome(r.Traces[p], 2000)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(chrome)
			fmt.Fprintf(&buf, "%s marks: %+v\n", p, r.Marks[p])
		}
		series, err := MarshalPlatformSeries(r.Series)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(series)
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("backend %q diverged: %d vs %d bytes (first diff at %d)",
				backend, len(want), buf.Len(), firstDiff(want, buf.Bytes()))
		}
	}
}

func TestOverloadStudyIdenticalAcrossBackends(t *testing.T) {
	var want []byte
	for _, backend := range studyBackends {
		cfg := withBackend(t, overloadTestConfig(), backend)
		o, err := cfg.Overload()
		if err != nil {
			t.Fatalf("backend %q: %v", backend, err)
		}
		doc, err := o.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got := append(doc, RenderOverload(o)...)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("backend %q diverged: %d vs %d bytes (first diff at %d)",
				backend, len(want), len(got), firstDiff(want, got))
		}
	}
}

// TestCharacterizationIgnoresBackend pins the documented carve-out: the
// characterization's results hold live simulator state with no wire form, so
// it runs in-process — and still succeeds — whatever backend is selected.
func TestCharacterizationIgnoresBackend(t *testing.T) {
	cfg := DefaultCharStudyConfig()
	cfg.Ops = PlatformOps{Spanner: 80, BigTable: 80, BigQuery: 8}
	cfg.Backend = BackendExec
	cfg.Exec.Command = []string{"/nonexistent-worker-binary"}
	ch, err := cfg.Characterize()
	if err != nil {
		t.Fatalf("characterization must not spawn workers: %v", err)
	}
	for _, p := range taxonomy.Platforms() {
		if len(ch.Traces[p]) == 0 {
			t.Fatalf("%s: no traces collected", p)
		}
	}
}

// TestExecWorkerCrashSurfacesDeterministicError kills every worker at startup
// and checks the study fails with the lowest-indexed unit's transport error
// instead of hanging or succeeding partially.
func TestExecWorkerCrashSurfacesDeterministicError(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := backendSafetyConfig()
	cfg.Backend = BackendExec
	cfg.Exec.Command = []string{exe}
	cfg.Exec.Env = []string{backendWorkerEnv + "=crash"}
	cfg.Exec.Workers = 2
	_, err = cfg.Safety()
	if err == nil {
		t.Fatal("want transport error from crashing workers, got success")
	}
	if !strings.Contains(err.Error(), "unit 0") {
		t.Fatalf("want lowest-index unit in the error, got: %v", err)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	for _, backend := range []string{"carrier-pigeon", "pool"} {
		cfg := backendSafetyConfig()
		cfg.Backend = backend
		_, err := cfg.Safety()
		if err == nil || !strings.Contains(err.Error(), "unknown backend") ||
			!strings.Contains(err.Error(), `""`) || !strings.Contains(err.Error(), `"exec"`) {
			t.Fatalf("backend %q: want an unknown-backend error naming \"\" and \"exec\", got: %v", backend, err)
		}
	}
}

// TestUnitRegistryRoundTrip runs one small unit of every registered kind
// in-process, then again through the registry from its JSON form, as an exec
// worker would, and requires the result bytes to match. The unit and the
// result must also re-marshal to identical bytes after decoding. A kind
// without a case here, or a case whose kind is not registered, fails.
func TestUnitRegistryRoundTrip(t *testing.T) {
	small := StudyConfig{Seed: 3, Clients: 2, TraceRate: 1,
		Ops:   PlatformOps{Spanner: 20, BigTable: 20, BigQuery: 2},
		Check: CheckConfig{Seeds: 1, HotRows: 4}}
	overload := overloadTestConfig()
	overload.Load.Duration = 300 * time.Millisecond
	overload.Load.TriggerAt = 100 * time.Millisecond
	overload.Load.TriggerDur = 50 * time.Millisecond
	resilience := small
	resilience.Faults = defaultFaults()
	partition := DefaultPartitionStudyConfig()
	partition.Clients, partition.Ops = small.Clients, small.Ops
	pipeline := DefaultPipelineStudyConfig()
	pipeline.Pipe = PipelineConfig{Records: 4, Batches: 2, Iterations: 1}
	fleet := smallFleetConfig()
	cases := map[string]func(t *testing.T){
		safetyUnitKind: func(t *testing.T) {
			roundTrip(t, small, safetyUnitKind, safetyUnit{Platform: taxonomy.BigTable, Seed: 3, Horizon: 50 * time.Millisecond})
		},
		latencyUnitKind: func(t *testing.T) {
			roundTrip(t, small, latencyUnitKind, latencyUnit{Rate: 800, Ops: 20})
		},
		resilienceUnitKind: func(t *testing.T) {
			roundTrip(t, resilience, resilienceUnitKind, resilienceUnit{Platform: taxonomy.BigQuery})
		},
		overloadUnitKind: func(t *testing.T) {
			roundTrip(t, overload, overloadUnitKind, overloadUnit{Platform: taxonomy.BigQuery})
		},
		partitionUnitKind: func(t *testing.T) {
			roundTrip(t, partition, partitionUnitKind, partitionUnit{Platform: taxonomy.Spanner, Arm: armBroken, Seed: 3, Horizon: 20 * time.Millisecond})
		},
		fleetUnitKind: func(t *testing.T) {
			roundTrip(t, fleet, fleetUnitKind, fleet.fleetUnits()[1])
		},
		pipelineUnitKind: func(t *testing.T) {
			roundTrip(t, pipeline, pipelineUnitKind, pipelineUnit{Arm: armFaulted, Seed: 3, Horizon: 20 * time.Millisecond})
		},
	}
	for kind := range unitRunners {
		if cases[kind] == nil {
			t.Errorf("registered unit kind %q has no round-trip case", kind)
		}
	}
	for kind, run := range cases {
		if unitRunners[kind] == nil {
			t.Errorf("unit kind %q is missing from the registry", kind)
			continue
		}
		t.Run(kind, run)
	}
}

// roundTrip checks one unit's in-process result against its registry result.
func roundTrip[U unit[R], R any](t *testing.T, cfg StudyConfig, kind string, u U) {
	t.Helper()
	direct, err := u.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	var back U
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(body, again) {
		t.Fatalf("unit changed across a JSON round trip:\n%s\n%s", body, again)
	}
	got, err := runUnit(cfg, kind, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("registry result differs from the in-process result (first diff at %d)", firstDiff(want, got))
	}
	var decoded R
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(decoded); !bytes.Equal(want, again) {
		t.Fatalf("result changed across a JSON round trip (first diff at %d)", firstDiff(want, again))
	}
}

func TestRunUnitRejectsUnknownKind(t *testing.T) {
	_, err := runUnit(StudyConfig{}, "no/such/kind", json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "unknown work unit kind") {
		t.Fatalf("want unknown-kind error, got: %v", err)
	}
}
