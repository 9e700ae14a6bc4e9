package bigtable

import (
	"fmt"

	"hyperprof/internal/faults"
)

// RegisterFaultTargets registers every tablet server on eng as
// "bigtable/ts<i>" (crash, recover, partition, heal) and every DFS
// chunkserver as "bigtable/cs<i>" (crash, recover), and returns the names in
// that order. Tablet servers have no slowdown hook: their data path is not
// RPC-fronted.
func (db *DB) RegisterFaultTargets(eng *faults.Engine) []string {
	// The indices come from the deployment's own sizes, so the actions'
	// out-of-range errors cannot occur.
	var names []string
	for i := range db.cfg.TabletServers {
		names = append(names, tabletServerTarget(i))
		eng.Register(tabletServerTarget(i), faults.Actions{
			Crash:     func() { _ = db.FailTabletServer(i) },
			Recover:   func() { _ = db.RecoverTabletServer(i) },
			Partition: func() { _ = db.PartitionTabletServer(i) },
			Heal:      func() { _ = db.HealTabletServer(i) },
		})
	}
	for i := range db.cfg.Chunkservers {
		name := fmt.Sprintf("bigtable/cs%d", i)
		names = append(names, name)
		eng.Register(name, faults.Actions{
			Crash:   func() { _ = db.dfs.FailServer(i) },
			Recover: func() { _ = db.dfs.RecoverServer(i) },
		})
	}
	return names
}

// CrashTargets names the crash-eligible components: the even tablet servers,
// then chunkserver cs0. The odd tablet servers always survive, so tablet
// reassignment always has a destination; crashes force reassignment and
// commit-log replay, and the chunkserver drives commit-log and read failover.
func (db *DB) CrashTargets() []string {
	var names []string
	for i := 0; i < db.cfg.TabletServers; i += 2 {
		names = append(names, tabletServerTarget(i))
	}
	return append(names, "bigtable/cs0")
}

// PartitionTargets names the tablet servers that may be partitioned: the odd
// ones, disjoint from CrashTargets so a reassignment destination always
// exists. Partitions are target-scoped (PartitionTabletServer) rather than
// link-scoped because the tablet data path is not RPC-fronted.
func (db *DB) PartitionTargets() []string {
	var names []string
	for i := 1; i < db.cfg.TabletServers; i += 2 {
		names = append(names, tabletServerTarget(i))
	}
	return names
}

func tabletServerTarget(i int) string { return fmt.Sprintf("bigtable/ts%d", i) }
