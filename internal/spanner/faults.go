package spanner

import (
	"fmt"
	"time"

	"hyperprof/internal/faults"
)

// RegisterFaultTargets registers every replica on eng as "spanner/g<g>/r<r>"
// with its crash, recover, slowdown and clock-skew actions, and returns the
// names in (group, region) order.
func (db *DB) RegisterFaultTargets(eng *faults.Engine) []string {
	// The indices come from the deployment's own sizes, so the actions'
	// out-of-range errors cannot occur.
	var names []string
	for g := range db.cfg.Groups {
		for r := range db.cfg.Regions {
			name := replicaTarget(g, r)
			names = append(names, name)
			eng.Register(name, faults.Actions{
				Crash:        func() { _ = db.CrashReplica(g, r) },
				Recover:      func() { _ = db.RestartReplica(g, r) },
				SetSlowdown:  func(f float64) { _ = db.SetReplicaSlowdown(g, r, f) },
				SetClockSkew: func(o time.Duration, d float64) { _ = db.SetClockSkew(g, r, o, d) },
			})
		}
	}
	return names
}

// CrashTargets names the crash-eligible replicas, perGroup per group, in
// (group, region) order. Group g's eligible replicas sit in regions g, g+1,
// ... modulo Regions, so the crashed region cycles with the group and the
// initial leaders (region 0) crash too, exercising elections. While perGroup
// is below a majority of Regions, a majority of every group always survives
// and no acknowledged write can be lost. At a majority (two of three
// regions), overlapping windows can take a group below quorum: operations
// then fail with ErrNoQuorum, which is availability loss, never safety loss.
func (db *DB) CrashTargets(perGroup int) []string {
	var names []string
	for g := range db.cfg.Groups {
		for r := range db.cfg.Regions {
			if (r-g%db.cfg.Regions+db.cfg.Regions)%db.cfg.Regions < perGroup {
				names = append(names, replicaTarget(g, r))
			}
		}
	}
	return names
}

func replicaTarget(g, region int) string { return fmt.Sprintf("spanner/g%d/r%d", g, region) }
