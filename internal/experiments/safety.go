package experiments

import (
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file is the safety torture study: each platform runs a contended
// read/write workload with history recording enabled, first fault-free (to
// calibrate the horizon and prove the checkers pass on a clean run), then
// once per seed under an injected fault schedule. After every run the
// recorded history is checked for linearizability, the structural violations
// are drained, and the platform's standing invariants (consensus, tablets,
// shuffle, DFS replica consistency) are asserted.

// SafetyViolation is one checker finding, tagged with the seed that
// reproduces it (rerun the study with that seed to replay the violating
// execution bit-identically).
type SafetyViolation struct {
	Seed uint64
	check.Violation
}

// SafetyRow summarizes one (platform, seed) torture run.
type SafetyRow struct {
	Platform taxonomy.Platform
	Seed     uint64
	// Faulted distinguishes torture runs from the calibration run.
	Faulted bool
	// Ops and Errors count issued operations and the subset that failed
	// (errors are availability loss, not safety loss — the checkers decide
	// what counts as a violation).
	Ops, Errors int
	// Elapsed is the virtual time to drain the workload.
	Elapsed time.Duration
	// FaultsApplied counts fault events that fired.
	FaultsApplied int
	// Violations counts checker findings for this run.
	Violations int
}

// Safety holds the full study.
type Safety struct {
	Cfg        StudyConfig
	Rows       []SafetyRow
	Violations []SafetyViolation
	// Marks carries one timeline mark per violation (plus nothing else), for
	// Chrome-trace export of the violating run.
	Marks map[taxonomy.Platform][]trace.Mark
}

// brokenViolation is the JSON export's digest of one expected broken-arm
// finding (the minimal violating history is left out).
type brokenViolation struct {
	Seed              uint64
	Kind, Key, Detail string
}

// brokenDigests condenses broken-arm findings for a JSON export.
func brokenDigests(vs []SafetyViolation) []brokenViolation {
	var out []brokenViolation
	for _, v := range vs {
		out = append(out, brokenViolation{Seed: v.Seed, Kind: v.Kind, Key: v.Key, Detail: v.Detail})
	}
	return out
}

// writeViolations renders findings in full, one per line with the seed
// that reproduces it.
func writeViolations(b *strings.Builder, vs []SafetyViolation) {
	for _, v := range vs {
		fmt.Fprintf(b, "[seed %d] %s\n", v.Seed, v.Violation.String())
	}
}

// Ok reports whether the study finished with zero violations.
func (s *Safety) Ok() bool { return len(s.Violations) == 0 }

// Safety runs the torture harness: per platform, one fault-free calibration
// run (whose elapsed time becomes the fault-schedule horizon) followed by
// Check.Seeds faulted runs. Equal configs replay bit-identically, and the
// arms fan out in two waves — the three calibration runs, then every
// faulted (platform, seed) arm — merging results in the same order the
// sequential loop produced.
func (cfg StudyConfig) Safety() (*Safety, error) {
	if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 {
		return nil, fmt.Errorf("experiments: invalid safety config %+v", cfg)
	}
	s := &Safety{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	platforms := taxonomy.Platforms()
	var calUnits, tortureUnits []checkedUnit
	for _, p := range platforms {
		calUnits = append(calUnits, checkedUnit{Platform: p, Arm: armSafety, Seed: cfg.Seed})
	}
	cals, err := runUnits(cfg, checkedUnitKind, calUnits)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		for j := 0; j < cfg.Check.Seeds; j++ {
			tortureUnits = append(tortureUnits, checkedUnit{Platform: p, Arm: armSafety, Seed: cfg.Seed + uint64(j), Horizon: cals[i].Row.Elapsed})
		}
	}
	tortured, err := runUnits(cfg, checkedUnitKind, tortureUnits)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		s.merge(p, cals[i], false)
		for j := 0; j < cfg.Check.Seeds; j++ {
			s.merge(p, tortured[i*cfg.Check.Seeds+j], true)
		}
	}
	return s, nil
}

// merge folds one arm's results into the study, as a torture row when
// faulted and a calibration row otherwise. It is the only place study state
// mutates, and it runs sequentially after the arms complete.
func (s *Safety) merge(p taxonomy.Platform, arm checkedResult, faulted bool) {
	r := arm.Row
	s.Rows = append(s.Rows, SafetyRow{Platform: r.Platform, Seed: r.Seed, Faulted: faulted,
		Ops: r.Ops, Errors: r.Errors, Elapsed: r.Elapsed, FaultsApplied: r.FaultsApplied, Violations: r.Violations})
	s.Violations = append(s.Violations, arm.Violations...)
	s.Marks[p] = append(s.Marks[p], arm.Marks...)
}

// RenderSafety renders the study as a fixed-width table followed by every
// violation in full (minimal violating histories included).
func RenderSafety(s *Safety) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Safety torture study (base seed %d, %d seeds/platform; checks: linearizability, structural, invariants)\n",
		s.Cfg.Seed, s.Cfg.Check.Seeds)
	fmt.Fprintf(&b, "%-10s %6s %-9s %6s %5s %10s %7s %10s\n",
		"platform", "seed", "arm", "ops", "errs", "elapsed", "faults", "violations")
	for _, row := range s.Rows {
		arm := "baseline"
		if row.Faulted {
			arm = "tortured"
		}
		fmt.Fprintf(&b, "%-10s %6d %-9s %6d %5d %10s %7d %10d\n",
			row.Platform, row.Seed, arm, row.Ops, row.Errors,
			row.Elapsed.Round(time.Millisecond), row.FaultsApplied, row.Violations)
	}
	if s.Ok() {
		b.WriteString("PASS: no safety violations\n")
		return b.String()
	}
	fmt.Fprintf(&b, "FAIL: %d safety violations\n", len(s.Violations))
	writeViolations(&b, s.Violations)
	return b.String()
}
