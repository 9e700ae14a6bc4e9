package experiments

import (
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/check"
	"hyperprof/internal/faults"
	"hyperprof/internal/stats"
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

// safetyArm is one completed (platform, seed) torture run, self-contained so
// arms can execute on concurrent goroutines — or in worker subprocesses —
// and merge afterwards in fixed (platform, seed) order.
type safetyArm struct {
	Row        SafetyRow
	Violations []SafetyViolation
	Marks      []trace.Mark
}

// safetyUnitKind tags safety arms in the unit registry.
const safetyUnitKind = "safety/arm"

// safetyUnit is one (platform, seed) arm. A zero horizon is the fault-free
// calibration run; a positive horizon is a torture run with a fault
// schedule spanning it.
type safetyUnit struct {
	Platform taxonomy.Platform `json:"platform"`
	Seed     uint64            `json:"seed"`
	Horizon  time.Duration     `json:"horizon"`
}

// Safety runs the torture harness: per platform, one fault-free calibration
// run (whose elapsed time becomes the fault-schedule horizon) followed by
// Check.Seeds faulted runs. Equal configs replay bit-identically, and the
// arms fan out in two waves — the three calibration runs, then every
// faulted (platform, seed) arm — merging results in the same order the
// sequential loop produced.
func (cfg StudyConfig) Safety() (*Safety, error) {
	if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 || cfg.Check.HotRows <= 0 {
		return nil, fmt.Errorf("experiments: invalid safety config %+v", cfg)
	}
	s := &Safety{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	platforms := taxonomy.Platforms()
	var calUnits, tortureUnits []safetyUnit
	for _, p := range platforms {
		calUnits = append(calUnits, safetyUnit{Platform: p, Seed: cfg.Seed})
	}
	cals, err := runUnits(cfg, safetyUnitKind, calUnits)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		for j := 0; j < cfg.Check.Seeds; j++ {
			tortureUnits = append(tortureUnits, safetyUnit{Platform: p, Seed: cfg.Seed + uint64(j), Horizon: cals[i].Row.Elapsed})
		}
	}
	tortured, err := runUnits(cfg, safetyUnitKind, tortureUnits)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		s.merge(p, cals[i])
		for j := 0; j < cfg.Check.Seeds; j++ {
			s.merge(p, tortured[i*cfg.Check.Seeds+j])
		}
	}
	return s, nil
}

// merge folds one arm's results into the study. It is the only place study
// state mutates, and it runs sequentially after the arms complete.
func (s *Safety) merge(p taxonomy.Platform, arm safetyArm) {
	s.Rows = append(s.Rows, arm.Row)
	s.Violations = append(s.Violations, arm.Violations...)
	s.Marks[p] = append(s.Marks[p], arm.Marks...)
}

// run runs the arm's closed-loop torture clients, injecting crash and
// straggler faults over the platform's crash targets when the arm has a
// horizon, and drains every checker. The arm builds its own environment and
// kernel and touches no study state, so distinct arms may run concurrently.
func (u safetyUnit) run(cfg StudyConfig) (safetyArm, error) {
	a, err := newCheckedArm(cfg, u.Platform, "", u.Seed)
	if err != nil {
		return safetyArm{}, err
	}
	if u.Horizon > 0 {
		a.eng.InjectAll(faults.GenerateSchedule(sorted(a.crash), cfg.Faults.schedule(u.Horizon, a.seed, a.stragglerProb)))
	}
	dc := drive(a.env, u.Platform, "torture", cfg.Clients, cfg.Ops.of(u.Platform),
		stats.NewRNG(u.Seed^0x53414645), 0, a.op) // "SAFE"
	arm := safetyArm{Row: SafetyRow{Platform: u.Platform, Seed: u.Seed, Faulted: u.Horizon > 0,
		Ops: dc.ops, Errors: dc.errs, Elapsed: dc.elapsed, FaultsApplied: len(a.eng.Applied)}}
	arm.Violations, arm.Marks = collect(u.Platform, u.Seed, a.h, a.reg, a.env.K.Now())
	arm.Row.Violations = len(arm.Violations)
	return arm, nil
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
