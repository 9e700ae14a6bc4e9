package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/faults"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// This file is the partition study: the safety torture's contended workload
// run under a nemesis of split-brain/ring/bridge partitions, asymmetric gray
// links and bounded clock skew, with two competing arms per platform. The
// naive arm takes the faults with recovery disabled — Spanner's leader keeps
// trying to reach a quorum it is cut from, BigTable's tablets stay pinned to
// partitioned servers, BigQuery's shuffle puts only ever try their home
// server. The hardened arm enables the partition-aware recovery paths:
// Spanner leaders step down to the majority component, BigTable's master
// reassigns tablets away from the cut (with log replay and epoch fencing,
// the crash-recovery machinery), and BigQuery's shuffle fails over around
// blocked links. Both arms must stay *safe* (zero checker violations, zero
// stale reads); the hardened arm must additionally stay *available*. The
// optional broken arms disable the safety mechanisms themselves — commit-wait
// off under a fast clock, partitioned writes acked outside the commit log —
// and exist to prove the checkers catch exactly that.

// Partition-study arm labels, in the fixed order arms run per platform.
const (
	armBaseline = "baseline"
	armNaive    = "naive"
	armHardened = "hardened"
	armBroken   = "broken"
)

// PartitionRow is one (platform, arm, seed) measurement.
type PartitionRow struct {
	Platform taxonomy.Platform
	// Arm is "baseline" (fault-free calibration), "naive", "hardened" or
	// "broken".
	Arm  string
	Seed uint64
	// Ops and Errors count issued operations and the subset that failed.
	Ops, Errors int
	// Writes and WriteErrors count the write subset (Spanner commits,
	// BigTable puts; BigQuery queries are all reads). The split matters
	// because partition recovery defends write availability, while a correct
	// CP system *must* fail reads whenever no quorum exists anywhere — the
	// naive arm's reads stay up through quorum loss only because it also
	// never elects a rival leader.
	Writes, WriteErrors int
	// Availability is successful ops / issued ops; WriteAvailability the same
	// over the write subset (1 when no writes were issued).
	Availability      float64
	WriteAvailability float64
	// Elapsed is the virtual time to drain the workload.
	Elapsed time.Duration
	// GoodputOpsPerSec is successful ops per virtual second.
	GoodputOpsPerSec float64
	// StaleReads counts successful reads that returned a value some
	// earlier-acknowledged write had already superseded; MaxStaleness is the
	// worst such age (see check.History.Staleness).
	StaleReads   int
	MaxStaleness time.Duration
	// FaultsApplied counts fault events that fired during the run.
	FaultsApplied int
	// Violations counts checker findings for this run.
	Violations int
}

// Partition holds the full study: per platform one calibration row, then
// naive and hardened rows per seed (and broken rows when configured), plus
// the hardened arm's fault marks for Chrome-trace export.
type Partition struct {
	Cfg  StudyConfig
	Rows []PartitionRow
	// Violations collects findings from the baseline, naive and hardened
	// arms — any entry here is a real safety bug.
	Violations []SafetyViolation
	// BrokenViolations collects the broken arms' findings — expected by
	// construction; an *empty* slice with broken arms enabled means the
	// checkers missed the planted bug.
	BrokenViolations []SafetyViolation
	// Marks carries the first hardened arm's applied faults per platform as
	// timeline marks, plus one mark per violation.
	Marks map[taxonomy.Platform][]trace.Mark
}

// Ok reports whether the naive, hardened and baseline arms finished with
// zero violations (broken arms are expected to violate and do not count).
func (s *Partition) Ok() bool { return len(s.Violations) == 0 }

// partitionArm is one completed arm, self-contained for concurrent (or
// out-of-process) execution and ordered merge.
type partitionArm struct {
	Row        PartitionRow
	Violations []SafetyViolation
	Marks      []trace.Mark
}

// partitionUnitKind tags partition arms in the unit registry.
const partitionUnitKind = "partition/arm"

// partitionUnit is one (platform, arm, seed) run; a zero horizon is the
// fault-free calibration run.
type partitionUnit struct {
	Platform taxonomy.Platform `json:"platform"`
	Arm      string            `json:"arm"`
	Seed     uint64            `json:"seed"`
	Horizon  time.Duration     `json:"horizon"`
}

// Partition runs the partition study: per platform one fault-free
// calibration run (whose elapsed time becomes the nemesis horizon), then a
// naive and a hardened arm per seed, then the broken demonstration arms when
// configured. Equal configs replay bit-identically; arms fan out across the
// configured backend and merge in fixed (platform, arm, seed) order, so the
// export is byte-identical sequential vs parallel and across backends.
func (cfg StudyConfig) Partition() (*Partition, error) {
	if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 || cfg.Check.HotRows <= 0 || cfg.Part.MTBFFrac <= 0 {
		return nil, fmt.Errorf("experiments: invalid partition config %+v", cfg)
	}
	s := &Partition{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	platforms := taxonomy.Platforms()
	var calUnits, units []partitionUnit
	for _, p := range platforms {
		calUnits = append(calUnits, partitionUnit{Platform: p, Arm: armBaseline, Seed: cfg.Seed})
	}
	cals, err := runUnits(cfg, partitionUnitKind, calUnits)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		horizon := cals[i].Row.Elapsed
		for j := 0; j < cfg.Check.Seeds; j++ {
			for _, arm := range []string{armNaive, armHardened} {
				units = append(units, partitionUnit{Platform: p, Arm: arm, Seed: cfg.Seed + uint64(j), Horizon: horizon})
			}
		}
		// Broken arms exist for Spanner (commit-wait off) and BigTable
		// (unlogged partition writes); BigQuery's shuffle has no equivalent
		// split-brain write path to break.
		if cfg.Part.IncludeBroken && p != taxonomy.BigQuery {
			units = append(units, partitionUnit{Platform: p, Arm: armBroken, Seed: cfg.Seed, Horizon: horizon})
		}
	}
	arms, err := runUnits(cfg, partitionUnitKind, units)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		s.merge(p, cals[i])
	}
	for i, u := range units {
		s.merge(u.Platform, arms[i])
	}
	return s, nil
}

// merge folds one arm into the study in deterministic order. Broken-arm
// violations are routed to the expected bucket; the first hardened arm's
// fault marks become the platform's Chrome-trace marks.
func (s *Partition) merge(p taxonomy.Platform, arm partitionArm) {
	s.Rows = append(s.Rows, arm.Row)
	if arm.Row.Arm == armBroken {
		s.BrokenViolations = append(s.BrokenViolations, arm.Violations...)
	} else {
		s.Violations = append(s.Violations, arm.Violations...)
	}
	if arm.Row.Arm == armHardened && arm.Row.Seed == s.Cfg.Seed {
		s.Marks[p] = arm.Marks
	}
}

// run runs the arm's paced clients under the nemesis — partition windows,
// one optional gray link and clock skew over the calibrated horizon, with a
// lighter crash schedule riding along — and condenses the run into an arm:
// availability and goodput from the drive counters, staleness from the
// recorded history, violations from every checker, and fault marks from the
// engine. The arm builds its own environment and kernel and touches no study
// state, so distinct arms may run concurrently.
func (u partitionUnit) run(cfg StudyConfig) (partitionArm, error) {
	a, err := newCheckedArm(cfg, u.Platform, u.Arm, u.Seed)
	if err != nil {
		return partitionArm{}, err
	}
	if u.Horizon > 0 {
		crash := a.crash
		if u.Platform == taxonomy.BigQuery {
			// BigQuery's nemesis crashes shuffle servers only: its
			// chunkserver (the last crash target) stays up.
			crash = crash[:len(crash)-1]
		}
		part := cfg.Part
		a.eng.InjectAll(faults.GenerateNemesisSchedule(crash, faults.NemesisConfig{
			ScheduleConfig:   cfg.Faults.schedule(u.Horizon, a.seed, a.stragglerProb),
			Nodes:            a.nodes,
			PartitionTargets: a.partition,
			PartitionMTBF:    time.Duration(float64(u.Horizon) * part.MTBFFrac),
			PartitionMTTR:    time.Duration(float64(u.Horizon) * part.MTTRFrac),
			GrayProb:         part.GrayProb,
			GrayExtra:        part.GrayExtra,
			GrayDrop:         part.GrayDrop,
			ClockTargets:     a.clocks,
			ClockSkewProb:    part.ClockSkewProb,
			ClockSkewMax:     part.ClockSkewMax,
			ClockDriftMax:    part.ClockDriftMax,
		}))
	}
	dc := drive(a.env, u.Platform, "partition", cfg.Clients, cfg.Ops.of(u.Platform),
		stats.NewRNG(u.Seed^0x50415254), u.Horizon, a.op) // "PART"
	row := PartitionRow{
		Platform: u.Platform, Arm: u.Arm, Seed: u.Seed,
		Ops: dc.ops, Errors: dc.errs, Writes: dc.writes, WriteErrors: dc.werrs,
		Elapsed: dc.elapsed, WriteAvailability: 1,
	}
	if dc.ops > 0 {
		row.Availability = float64(dc.ops-dc.errs) / float64(dc.ops)
	}
	if dc.writes > 0 {
		row.WriteAvailability = float64(dc.writes-dc.werrs) / float64(dc.writes)
	}
	if dc.elapsed > 0 {
		row.GoodputOpsPerSec = float64(dc.ops-dc.errs) / dc.elapsed.Seconds()
	}
	row.StaleReads, row.MaxStaleness = a.h.Staleness()
	violations, marks := collect(u.Platform, u.Seed, a.h, a.reg, a.env.K.Now())
	row.Violations = len(violations)
	out := partitionArm{Violations: violations}
	if u.Horizon > 0 {
		row.FaultsApplied = len(a.eng.Applied)
		out.Marks = append(faultMarks(a.eng), marks...)
	}
	out.Row = row
	return out, nil
}

// JSON renders the study's machine-readable export: seed, rows and the
// broken arms' expected-violation digests, in fixed order, so equal configs
// produce byte-identical documents on every backend.
func (s *Partition) JSON() ([]byte, error) {
	doc := struct {
		Seed             uint64
		Rows             []PartitionRow
		Violations       []SafetyViolation
		BrokenViolations []brokenViolation
	}{Seed: s.Cfg.Seed, Rows: s.Rows, Violations: s.Violations, BrokenViolations: brokenDigests(s.BrokenViolations)}
	return json.MarshalIndent(doc, "", "  ")
}

// RenderPartition renders the study as a fixed-width table followed by the
// verdict: the naive-vs-hardened availability comparison is the headline,
// violations (none expected outside broken arms) print in full with their
// minimal violating subhistories.
func RenderPartition(s *Partition) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Partition nemesis study (base seed %d, %d seeds/arm; partitions + gray links + clock skew, eps %v)\n",
		s.Cfg.Seed, s.Cfg.Check.Seeds, s.Cfg.Part.ClockEps)
	fmt.Fprintf(&b, "%-10s %-9s %6s %6s %5s %7s %7s %10s %10s %6s %10s %7s %10s\n",
		"platform", "arm", "seed", "ops", "errs", "avail%", "wavail%", "elapsed", "goodput/s", "stale", "staleness", "faults", "violations")
	for _, row := range s.Rows {
		fmt.Fprintf(&b, "%-10s %-9s %6d %6d %5d %7.2f %7.2f %10s %10.1f %6d %10s %7d %10d\n",
			row.Platform, row.Arm, row.Seed, row.Ops, row.Errors,
			row.Availability*100, row.WriteAvailability*100,
			row.Elapsed.Round(time.Millisecond), row.GoodputOpsPerSec,
			row.StaleReads, row.MaxStaleness.Round(10*time.Microsecond),
			row.FaultsApplied, row.Violations)
	}
	if s.Ok() {
		b.WriteString("PASS: no safety violations in baseline/naive/hardened arms\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d safety violations\n", len(s.Violations))
		writeViolations(&b, s.Violations)
	}
	if len(s.BrokenViolations) > 0 {
		fmt.Fprintf(&b, "broken-knob arms (expected violations): %d found\n", len(s.BrokenViolations))
		writeViolations(&b, s.BrokenViolations)
	}
	return b.String()
}
