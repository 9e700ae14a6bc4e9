package spanner

import (
	"fmt"
	"slices"
	"testing"

	"hyperprof/internal/faults"
)

// TestCrashTargetsKeepAMajority pins the crash-eligibility rule: with
// perGroup replicas eligible per group, crashing all of them at once leaves a
// majority exactly when perGroup <= Regions - (Regions/2+1). The one-per-group
// rule therefore never puts a group's quorum at risk at any region count. The
// two-per-group rule does at three regions, the default: overlapping windows
// there can drop a group below quorum, which costs availability (ErrNoQuorum)
// and never safety.
func TestCrashTargetsKeepAMajority(t *testing.T) {
	for _, regions := range []int{3, 4, 5, 7} {
		cfg := smallConfig()
		cfg.Groups = 4
		cfg.Regions = regions
		cfg.RowsPerGroup = 50
		db, err := New(testEnv(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := faults.NewEngine(db.env.K)
		registered := db.RegisterFaultTargets(eng)
		if len(registered) != cfg.Groups*regions {
			t.Fatalf("regions=%d: registered %d targets, want every replica", regions, len(registered))
		}
		quorum := regions/2 + 1
		for _, perGroup := range []int{1, 2} {
			names := db.CrashTargets(perGroup)
			cycled := map[int]bool{}
			for g := range cfg.Groups {
				eligible := 0
				for r := range regions {
					if slices.Contains(names, fmt.Sprintf("spanner/g%d/r%d", g, r)) {
						eligible++
						cycled[r] = true
					}
				}
				if eligible != perGroup {
					t.Fatalf("regions=%d perGroup=%d: group %d has %d eligible replicas", regions, perGroup, g, eligible)
				}
				if keeps, want := regions-eligible >= quorum, perGroup <= regions-quorum; keeps != want {
					t.Fatalf("regions=%d perGroup=%d: surviving majority %v, want %v", regions, perGroup, keeps, want)
				}
			}
			if perGroup == 1 && !cycled[0] {
				t.Fatalf("regions=%d: no region-0 replica (initial leader) is crash-eligible", regions)
			}
			for _, n := range names {
				if !slices.Contains(registered, n) {
					t.Fatalf("crash target %s is not registered", n)
				}
			}
		}
	}
}

// TestRegisterFaultTargetsWiresReplicas crashes and recovers every replica
// through its registered name and checks the action lands on that replica.
func TestRegisterFaultTargetsWiresReplicas(t *testing.T) {
	env := testEnv(1)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := faults.NewEngine(env.K)
	names := db.RegisterFaultTargets(eng)
	for i, name := range names {
		eng.Inject(faults.Event{Kind: faults.Crash, Target: name})
		env.K.Run()
		g, r := i/db.cfg.Regions, i%db.cfg.Regions
		if !db.ReplicaDown(g, r) {
			t.Fatalf("%s: replica g%d/r%d not down after crash", name, g, r)
		}
		eng.Inject(faults.Event{Kind: faults.Recover, Target: name})
		env.K.Run()
		if db.ReplicaDown(g, r) {
			t.Fatalf("%s: replica g%d/r%d still down after recover", name, g, r)
		}
	}
	if eng.Skipped != 0 {
		t.Fatalf("%d events skipped", eng.Skipped)
	}
}
