package experiments

// This file runs a study's remotable work. Every study's arms are
// independent deterministic simulations, so where an arm computes never
// changes what it computes. A remotable arm is a typed unit: a plain struct
// of the arm's parameters whose run method computes the arm's result. There
// are two backends:
//
//   - The default, the empty string, calls each unit's run method on the
//     in-process goroutine pool (runner.go). No JSON is involved.
//   - BackendExec ships units as JSON across `hyperprof -worker`
//     subprocesses via internal/dispatch. That keeps 10k-seed safety
//     tortures and full design-space sweeps practical: each worker is a
//     fresh address space, so the study's memory high-water mark stays flat
//     and a crashed arm cannot take the coordinator down. Workers find a
//     unit's run method through the unitRunners registry.
//
// The determinism invariant extends across backends: a study's exported
// bytes are identical whether its arms ran sequentially, on the goroutine
// pool, or across worker processes. The fixed-order merge already
// guarantees this for goroutines; for processes it additionally requires
// that every unit and arm result survives a JSON round trip bit-exactly
// (encoding/json round-trips float64, time.Duration and nil-vs-empty slices
// faithfully; trace.Trace carries its unexported sampling state through
// custom JSON). The registry round-trip and cross-backend tests pin this.
//
// Characterize and Observe are not remotable: their results hand live
// simulator state (kernels, profilers, tracers, storage inventories)
// straight to the figure extractors, so they run through runJobs in-process
// whatever backend the config selects.

import (
	"encoding/json"
	"fmt"
	"io"

	"hyperprof/internal/dispatch"
)

// BackendExec is the StudyConfig.Backend value that selects the
// multi-process worker backend. The empty string selects in-process.
const BackendExec = "exec"

// unit is one remotable arm of a study: its fields are the arm's parameters
// and run computes the arm's result under the study config.
type unit[R any] interface {
	run(cfg StudyConfig) (R, error)
}

// runUnits executes units through the configured backend and returns their
// results in unit order. kind names the unit type in the unitRunners
// registry. If any unit fails, the error of the lowest-indexed failing unit
// is returned, so the error is deterministic regardless of interleaving.
func runUnits[U unit[R], R any](cfg StudyConfig, kind string, units []U) ([]R, error) {
	switch cfg.Backend {
	case "":
		return runJobs(cfg.Parallel, len(units), func(i int) (R, error) { return units[i].run(cfg) })
	case BackendExec:
		raws, err := runExec(cfg, kind, units)
		if err != nil {
			return nil, err
		}
		results := make([]R, len(raws))
		for i, raw := range raws {
			if err := json.Unmarshal(raw, &results[i]); err != nil {
				return nil, fmt.Errorf("experiments: decode %s result %d: %w", kind, i, err)
			}
		}
		return results, nil
	}
	return nil, fmt.Errorf("experiments: unknown backend %q (want \"\" or %q)", cfg.Backend, BackendExec)
}

// runExec ships units across hyperprof -worker subprocesses and returns the
// serialized results in unit order.
func runExec[U any](cfg StudyConfig, kind string, units []U) ([]json.RawMessage, error) {
	ec := cfg.Exec
	workers := ec.Workers
	if workers <= 0 {
		workers = Parallelism(cfg.Parallel)
	}
	retries := ec.Retries
	switch {
	case retries == 0:
		retries = 1
	case retries < 0:
		retries = 0
	}
	// Workers run units in a fresh process, so the config they see must not
	// re-select a backend: arms execute directly.
	wcfg := cfg
	wcfg.Backend = ""
	wcfg.Exec = ExecConfig{}
	pool := &dispatch.Pool{
		Command:     ec.Command,
		Env:         ec.Env,
		Workers:     workers,
		UnitTimeout: ec.UnitTimeout,
		Retries:     retries,
	}
	wire := make([]dispatch.Unit, len(units))
	for i, u := range units {
		body, err := json.Marshal(u)
		if err == nil {
			body, err = json.Marshal(wireUnit{Cfg: wcfg, Body: body})
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: marshal %s unit %d: %w", kind, i, err)
		}
		wire[i] = dispatch.Unit{Kind: kind, Body: body}
	}
	return pool.Run(wire)
}

// wireUnit is the exec backend's frame body: the study config the arm runs
// under plus the unit itself.
type wireUnit struct {
	Cfg  StudyConfig     `json:"cfg"`
	Body json.RawMessage `json:"body"`
}

// unitRunners maps each unit kind to the function that decodes and runs it.
// Exec workers resolve kinds here.
var unitRunners = map[string]func(cfg StudyConfig, body json.RawMessage) (any, error){
	safetyUnitKind:     decodeRun[safetyUnit, safetyArm],
	latencyUnitKind:    decodeRun[latencyUnit, LatencyPoint],
	resilienceUnitKind: decodeRun[resilienceUnit, [2]resilienceArm],
	overloadUnitKind:   decodeRun[overloadUnit, [2]overloadArm],
	partitionUnitKind:  decodeRun[partitionUnit, partitionArm],
	fleetUnitKind:      decodeRun[fleetUnit, FleetRow],
	pipelineUnitKind:   decodeRun[pipelineUnit, pipelineArm],
}

// decodeRun decodes one U from its JSON form and runs it.
func decodeRun[U unit[R], R any](cfg StudyConfig, body json.RawMessage) (any, error) {
	var u U
	if err := json.Unmarshal(body, &u); err != nil {
		return nil, fmt.Errorf("experiments: decode %T: %w", u, err)
	}
	return u.run(cfg)
}

// runUnit resolves and executes one serialized work unit in this process.
func runUnit(cfg StudyConfig, kind string, body json.RawMessage) (json.RawMessage, error) {
	runner, ok := unitRunners[kind]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown work unit kind %q", kind)
	}
	result, err := runner(cfg, body)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(result)
	if err != nil {
		return nil, fmt.Errorf("experiments: marshal %s result: %w", kind, err)
	}
	return out, nil
}

// ServeWorker runs the worker side of the exec backend protocol on the
// given streams until EOF: decode each frame's study config and unit, run
// the arm in this process, and answer with the serialized result.
// cmd/hyperprof serves this under its -worker flag.
func ServeWorker(r io.Reader, w io.Writer) error {
	return dispatch.Serve(r, w, func(kind string, body json.RawMessage) (json.RawMessage, error) {
		var u wireUnit
		if err := json.Unmarshal(body, &u); err != nil {
			return nil, fmt.Errorf("experiments: decode %s work unit: %w", kind, err)
		}
		return runUnit(u.Cfg, kind, u.Body)
	})
}
