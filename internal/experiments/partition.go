package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hyperprof/internal/faults"
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

// The partition study's nemesis, as fractions of and probabilities over the
// calibrated horizon (mirroring FaultConfig). Partition windows arrive every
// partitionMTBFFrac of the horizon and last partitionMTTRFrac of it. With
// probability partitionGrayProb one asymmetric gray-link window adds
// partitionGrayExtra per message and drops partitionGrayDrop of them, one
// direction only. Each replica has a partitionClockSkewProb chance of one
// clock-skew window with offset in [-partitionClockSkewMax,
// partitionClockSkewMax] and drift in [-partitionClockDriftMax,
// partitionClockDriftMax].
const (
	partitionMTBFFrac      = 0.4
	partitionMTTRFrac      = 0.12
	partitionGrayProb      = 0.6
	partitionGrayExtra     = 300 * time.Microsecond
	partitionGrayDrop      = 0.05
	partitionClockSkewProb = 0.5
	partitionClockSkewMax  = 700 * time.Microsecond
	partitionClockDriftMax = 1e-4
)

// partitionClockEps is the TrueTime-style uncertainty bound Spanner runs
// with in every partition-study arm: commit timestamps come from the skewed
// local clock and commits wait the bound out before acknowledging. The skew
// plus the drift accumulated over the horizon must stay inside it, or the
// hardened arm's commit-wait cannot guarantee external consistency — the
// bound TrueTime itself assumes. partitionClockSkewMax +
// partitionClockDriftMax × horizon stays under 1ms for any horizon below 3s.
const partitionClockEps = time.Millisecond

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

// Partition runs the partition study: per platform one fault-free
// calibration run (whose elapsed time becomes the nemesis horizon), then a
// naive and a hardened arm per seed, then the broken demonstration arms when
// configured. Equal configs replay bit-identically; arms fan out across the
// configured backend and merge in fixed (platform, arm, seed) order, so the
// export is byte-identical sequential vs parallel and across backends.
func (cfg StudyConfig) Partition() (*Partition, error) {
	if cfg.Clients <= 0 || cfg.Check.Seeds <= 0 {
		return nil, fmt.Errorf("experiments: invalid partition config %+v", cfg)
	}
	s := &Partition{Cfg: cfg, Marks: map[taxonomy.Platform][]trace.Mark{}}
	platforms := taxonomy.Platforms()
	var calUnits, units []checkedUnit
	for _, p := range platforms {
		calUnits = append(calUnits, checkedUnit{Platform: p, Arm: armBaseline, Seed: cfg.Seed})
	}
	cals, err := runUnits(cfg, checkedUnitKind, calUnits)
	if err != nil {
		return nil, err
	}
	for i, p := range platforms {
		horizon := cals[i].Row.Elapsed
		for j := 0; j < cfg.Check.Seeds; j++ {
			for _, arm := range []string{armNaive, armHardened} {
				units = append(units, checkedUnit{Platform: p, Arm: arm, Seed: cfg.Seed + uint64(j), Horizon: horizon})
			}
		}
		// Broken arms exist for Spanner (commit-wait off) and BigTable
		// (unlogged partition writes); BigQuery's shuffle has no equivalent
		// split-brain write path to break.
		if cfg.Part.IncludeBroken && p != taxonomy.BigQuery {
			units = append(units, checkedUnit{Platform: p, Arm: armBroken, Seed: cfg.Seed, Horizon: horizon})
		}
	}
	arms, err := runUnits(cfg, checkedUnitKind, units)
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
func (s *Partition) merge(p taxonomy.Platform, arm checkedResult) {
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

// nemesisSchedule draws a partition arm's nemesis over the calibrated
// horizon: partition windows, one optional gray link and clock skew on top
// of sc's lighter crash schedule.
func nemesisSchedule(a *checkedArm, p taxonomy.Platform, horizon time.Duration, sc faults.ScheduleConfig) []faults.Event {
	crash := a.crash
	if p == taxonomy.BigQuery {
		// BigQuery's nemesis crashes shuffle servers only: its chunkserver
		// (the last crash target) stays up.
		crash = crash[:len(crash)-1]
	}
	return faults.GenerateNemesisSchedule(crash, faults.NemesisConfig{
		ScheduleConfig:   sc,
		Nodes:            a.nodes,
		PartitionTargets: a.partition,
		PartitionMTBF:    time.Duration(float64(horizon) * partitionMTBFFrac),
		PartitionMTTR:    time.Duration(float64(horizon) * partitionMTTRFrac),
		GrayProb:         partitionGrayProb,
		GrayExtra:        partitionGrayExtra,
		GrayDrop:         partitionGrayDrop,
		ClockTargets:     a.clocks,
		ClockSkewProb:    partitionClockSkewProb,
		ClockSkewMax:     partitionClockSkewMax,
		ClockDriftMax:    partitionClockDriftMax,
	})
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
		s.Cfg.Seed, s.Cfg.Check.Seeds, partitionClockEps)
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
