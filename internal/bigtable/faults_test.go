package bigtable

import (
	"slices"
	"testing"

	"hyperprof/internal/faults"
	"hyperprof/internal/platform"
)

// TestFaultTargetRules pins the crash and partition rules: at least one
// tablet server is never crash-eligible (reassignment always has a
// destination), the crash and partition sets are disjoint, and every named
// target is registered.
func TestFaultTargetRules(t *testing.T) {
	for _, servers := range []int{2, 3, 4, 7} {
		cfg := smallConfig()
		cfg.TabletServers = servers
		env := platform.NewEnv(1, 1)
		db, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := faults.NewEngine(env.K)
		registered := db.RegisterFaultTargets(eng)
		crash, part := db.CrashTargets(), db.PartitionTargets()
		spared := 0
		for i := range servers {
			if !slices.Contains(crash, tabletServerTarget(i)) {
				spared++
			}
		}
		if spared == 0 {
			t.Fatalf("servers=%d: every tablet server is crash-eligible", servers)
		}
		if len(part) == 0 {
			t.Fatalf("servers=%d: no partitionable tablet server", servers)
		}
		for _, n := range part {
			if slices.Contains(crash, n) {
				t.Fatalf("servers=%d: %s is both crash- and partition-eligible", servers, n)
			}
		}
		for _, n := range append(crash, part...) {
			if !slices.Contains(registered, n) {
				t.Fatalf("servers=%d: target %s is not registered", servers, n)
			}
		}
	}
}

// TestRegisterFaultTargetsWiresServers crashes, recovers, partitions and
// heals every tablet server through its registered name.
func TestRegisterFaultTargetsWiresServers(t *testing.T) {
	env, db := newDB(t, 1)
	eng := faults.NewEngine(env.K)
	db.RegisterFaultTargets(eng)
	for i := range db.cfg.TabletServers {
		name := tabletServerTarget(i)
		eng.Inject(faults.Event{Kind: faults.Crash, Target: name})
		env.K.Run()
		if !db.TabletServerDown(i) {
			t.Fatalf("%s not down after crash", name)
		}
		eng.Inject(faults.Event{Kind: faults.Recover, Target: name})
		eng.Inject(faults.Event{Kind: faults.Partition, Target: name})
		env.K.Run()
		if db.TabletServerDown(i) || !db.TabletServerPartitioned(i) {
			t.Fatalf("%s: down=%v partitioned=%v after recover+partition", name, db.TabletServerDown(i), db.TabletServerPartitioned(i))
		}
		eng.Inject(faults.Event{Kind: faults.Heal, Target: name})
		env.K.Run()
		if db.TabletServerPartitioned(i) {
			t.Fatalf("%s still partitioned after heal", name)
		}
	}
	eng.Inject(faults.Event{Kind: faults.Crash, Target: "bigtable/cs0"})
	env.K.Run()
	if !db.DFS().ServerDown(0) {
		t.Fatal("bigtable/cs0 not down after crash")
	}
	if eng.Skipped != 0 {
		t.Fatalf("%d events skipped", eng.Skipped)
	}
}
