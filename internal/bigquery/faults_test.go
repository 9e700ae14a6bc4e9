package bigquery

import (
	"fmt"
	"slices"
	"testing"

	"hyperprof/internal/faults"
	"hyperprof/internal/platform"
)

// TestCrashTargetsSpareAShuffleServer pins the crash rule: at least one
// shuffle server is never crash-eligible, so puts always have a live
// destination, and every crash target is registered.
func TestCrashTargetsSpareAShuffleServer(t *testing.T) {
	for _, servers := range []int{2, 3, 4, 7} {
		cfg := smallConfig()
		cfg.ShuffleServers = servers
		env := platform.NewEnv(1, 1)
		e, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		registered := e.RegisterFaultTargets(faults.NewEngine(env.K))
		crash := e.CrashTargets()
		spared := 0
		for i := range servers {
			if !slices.Contains(crash, fmt.Sprintf("bigquery/ss%d", i)) {
				spared++
			}
		}
		if spared == 0 {
			t.Fatalf("servers=%d: every shuffle server is crash-eligible", servers)
		}
		for _, n := range crash {
			if !slices.Contains(registered, n) {
				t.Fatalf("servers=%d: crash target %s is not registered", servers, n)
			}
		}
	}
}

// TestRegisterFaultTargetsWiresServers crashes, recovers and slows every
// shuffle server through its registered name.
func TestRegisterFaultTargetsWiresServers(t *testing.T) {
	env, e := newEngine(t, 1)
	eng := faults.NewEngine(env.K)
	names := e.RegisterFaultTargets(eng)
	for i := range e.cfg.ShuffleServers {
		eng.Inject(faults.Event{Kind: faults.Crash, Target: names[i]})
		env.K.Run()
		if !e.ShuffleServerDown(i) {
			t.Fatalf("%s not down after crash", names[i])
		}
		eng.Inject(faults.Event{Kind: faults.Recover, Target: names[i]})
		eng.Inject(faults.Event{Kind: faults.Straggler, Target: names[i], Factor: 4})
		env.K.Run()
		if e.ShuffleServerDown(i) {
			t.Fatalf("%s still down after recover", names[i])
		}
	}
	cs := names[e.cfg.ShuffleServers]
	eng.Inject(faults.Event{Kind: faults.Crash, Target: cs})
	env.K.Run()
	if !e.DFS().ServerDown(0) {
		t.Fatalf("%s not down after crash", cs)
	}
	if eng.Skipped != 0 {
		t.Fatalf("%d events skipped", eng.Skipped)
	}
}
