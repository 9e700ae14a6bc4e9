package experiments

// This file is the arm plumbing the studies share: each platform's
// environment, the fault schedule and network-degradation glue, and the
// checked arm every safety and partition run is built from. Which targets
// may crash is not decided here: each platform package declares its own
// fault targets (RegisterFaultTargets, CrashTargets).

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/check"
	"hyperprof/internal/faults"
	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

// newPlatformEnv builds platform p's environment: Spanner gets its
// recommended wide-area network, and the observability plane is wired when
// the study asks for it (after the network, before the platform; see
// platform.Env.EnableObs).
func newPlatformEnv(p taxonomy.Platform, seed uint64, traceRate int, o ObsConfig) *platform.Env {
	env := platform.NewEnv(seed, traceRate)
	if p == taxonomy.Spanner {
		env.Net = netsim.New(env.K, spanner.RecommendedNetConfig())
	}
	if o.Enabled {
		env.EnableObs(o.registry())
	}
	return env
}

// platformOffset is the per-platform seed offset of the characterization,
// resilience, overload and fleet studies, keeping the platforms' random
// streams decorrelated.
func platformOffset(p taxonomy.Platform) uint64 {
	switch p {
	case taxonomy.BigTable:
		return 1
	case taxonomy.BigQuery:
		return 2
	}
	return 0
}

// resilienceRPCPolicy is the client-side policy fault-injected arms run
// with: a few quick retries so transient faults (crashed replica, dropped
// message, shed request) are retried instead of surfacing as operation
// errors. No deadline is set; hedging is exercised separately in the netsim
// tests.
func resilienceRPCPolicy() netsim.Policy {
	return netsim.Policy{
		MaxAttempts: 3,
		BackoffBase: 200 * time.Microsecond,
		BackoffMax:  2 * time.Millisecond,
	}
}

// schedule converts the fractional fault rates into an absolute schedule
// over the calibrated horizon. Faults stop arriving at 80% of it so
// recoveries land while the workload drains. stragglerProb overrides the
// configured probability so platforms whose targets cannot straggle
// (BigTable's tablet servers are not RPC-fronted) get crash-only schedules
// instead of dead skipped events.
func (f FaultConfig) schedule(horizon time.Duration, seed uint64, stragglerProb float64) faults.ScheduleConfig {
	return faults.ScheduleConfig{
		Horizon:         time.Duration(float64(horizon) * 0.8),
		MTBF:            time.Duration(float64(horizon) * f.MTBFFrac),
		MTTR:            time.Duration(float64(horizon) * f.MTTRFrac),
		StragglerProb:   stragglerProb,
		StragglerFactor: f.StragglerFactor,
		NetDegradeProb:  f.NetDegradeProb,
		NetExtraDelay:   f.NetExtraDelay,
		NetDropProb:     f.NetDropProb,
		Seed:            seed,
	}
}

// registerNetFaults wires net's network-wide degradation into eng; the drop
// stream is seeded from seed.
func registerNetFaults(eng *faults.Engine, net *netsim.Network, seed uint64) {
	eng.RegisterNetwork(func(extra time.Duration, drop float64) {
		net.Degrade(extra, drop, seed^0x4e455444) // "NETD"
	}, net.Restore)
}

// sorted sorts names in place and returns them: GenerateSchedule draws one
// RNG stream per target in list order, and the crash/straggler schedules
// draw them in name order.
func sorted(names []string) []string {
	sort.Strings(names)
	return names
}

// checkedArm is one platform deployment under the safety checkers, with its
// fault surface. Every safety and partition arm is one.
type checkedArm struct {
	env *platform.Env
	// seed is the platform's offset seed (arm seed +1000 for BigTable,
	// +2000 for BigQuery); environments and fault schedules draw from it.
	seed uint64
	h    *check.History
	reg  *check.Registry
	// op performs one contended operation on the study's hot rows and
	// reports whether it was a write.
	op func(p *sim.Proc, rng *stats.RNG, client, i int) (write bool, err error)
	// eng has every injectable component, the link plane and the
	// network-degradation hooks registered; nothing is injected until the
	// study schedules faults on it.
	eng *faults.Engine
	// crash names the platform's crash-eligible targets in its own order;
	// stragglerProb is 0 where those targets cannot straggle.
	crash         []string
	stragglerProb float64
	// partition names the targets partitioned through platform-level
	// actions (BigTable's tablet servers, whose data path is not
	// RPC-fronted); nodes the sorted netsim nodes link-scoped partitions and
	// gray links cut; clocks the targets whose clocks may skew.
	partition, nodes, clocks []string
}

// newCheckedArm builds platform p's deployment for one safety or partition
// arm. arm selects the partition study's recovery and broken knobs; the
// empty arm is the safety study's plain deployment.
func newCheckedArm(cfg StudyConfig, p taxonomy.Platform, arm string, seed uint64) (*checkedArm, error) {
	a := &checkedArm{seed: seed, stragglerProb: cfg.Faults.StragglerProb}
	value := func(c, i int) []byte { return []byte(fmt.Sprintf("s%d/c%d/op%d", seed, c, i)) }
	switch p {
	case taxonomy.Spanner:
		a.env = newPlatformEnv(p, a.seed, 1, ObsConfig{})
		scfg := spanner.DefaultConfig()
		scfg.RPC = resilienceRPCPolicy()
		if arm != "" {
			scfg.ClockEps = cfg.Part.ClockEps
		}
		switch arm {
		case armHardened, armBaseline:
			scfg.PartitionRecovery = true
		case armBroken:
			// BROKEN: recovery stays on so commits keep flowing through
			// skewed leaders; the safety knob that is off is the commit-wait.
			scfg.PartitionRecovery = true
			scfg.DisableCommitWait = true
		}
		db, err := spanner.New(a.env, scfg)
		if err != nil {
			return nil, err
		}
		a.h, a.reg = watch(a.env.K, db)
		if arm == armBroken {
			// Deterministic fast clock on every replica of group 0: the offset
			// is far past the uncertainty bound (and past any commit's
			// replication latency), so with commit-wait disabled a group-0
			// commit returns while its timestamp still sits in other groups'
			// future — any commit invoked through a healthy group inside that
			// window carries a smaller timestamp, the inversion the
			// external-consistency checker must pin with a two-op subhistory.
			// With commit-wait enabled the same skew would only stretch the
			// wait, never break the ordering.
			for r := 0; r < scfg.Regions; r++ {
				if err := db.SetClockSkew(0, r, 20*cfg.Part.ClockEps, 0); err != nil {
					return nil, err
				}
			}
		}
		a.op = func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
			g, r := rng.Intn(scfg.Groups), rng.Intn(cfg.Check.HotRows)
			if rng.Bool(0.5) {
				_, err := db.Read(p, nil, g, r, rng.Bool(0.15))
				return false, err
			}
			return true, db.Commit(p, nil, g, r, value(c, i))
		}
		a.crash = db.CrashTargets(2)
		a.clocks = db.RegisterFaultTargets(a.faults(seed))
		if arm == armBroken {
			// The planted group-0 skew must survive the run: a nemesis skew
			// window would replace it (skew replaces, never stacks), so group
			// 0's replicas, the first Regions targets, are off the list.
			a.clocks = a.clocks[scfg.Regions:]
		}
		for g := 0; g < scfg.Groups; g++ {
			for r := 0; r < scfg.Regions; r++ {
				node, err := db.ReplicaNodeName(g, r)
				if err != nil {
					return nil, err
				}
				a.nodes = append(a.nodes, node)
			}
		}
	case taxonomy.BigTable:
		a.seed += 1000
		a.stragglerProb = 0
		a.env = newPlatformEnv(p, a.seed, 1, ObsConfig{})
		bcfg := bigtable.DefaultConfig()
		switch arm {
		case armHardened, armBaseline:
			bcfg.PartitionRecovery = true
		case armBroken:
			bcfg.BrokenPartitionWrites = true
		}
		db, err := bigtable.New(a.env, bcfg)
		if err != nil {
			return nil, err
		}
		a.h, a.reg = watch(a.env.K, db)
		a.reg.Register("bigtable-dfs", db.DFS().CheckReplicaConsistency)
		a.op = func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
			t, r := rng.Intn(bcfg.Tablets), rng.Intn(cfg.Check.HotRows)
			if arm == armBroken {
				// Concentrate the demonstration arm on two tablets (one on a
				// partitionable server) so writes lost to the broken fixture
				// are reliably re-read after the heal.
				t %= 2
			}
			if rng.Bool(0.5) {
				_, err := db.Get(p, nil, t, r)
				return false, err
			}
			return true, db.Put(p, nil, t, r, value(c, i))
		}
		db.RegisterFaultTargets(a.faults(seed))
		a.crash, a.partition = db.CrashTargets(), db.PartitionTargets()
	case taxonomy.BigQuery:
		a.seed += 2000
		a.env = newPlatformEnv(p, a.seed, 1, ObsConfig{})
		qcfg := bigquery.DefaultConfig()
		qcfg.RPC = resilienceRPCPolicy()
		qcfg.DisableFailover = arm == armNaive
		e, err := bigquery.New(a.env, qcfg)
		if err != nil {
			return nil, err
		}
		a.h, a.reg = watch(a.env.K, e)
		a.reg.Register("bigquery-dfs", e.DFS().CheckReplicaConsistency)
		kinds := []bigquery.Kind{bigquery.ScanAgg, bigquery.JoinQuery}
		a.op = func(p *sim.Proc, rng *stats.RNG, c, i int) (bool, error) {
			q := bigquery.Query{Kind: kinds[rng.Intn(len(kinds))], Threshold: int64(rng.Intn(1000))}
			_, err := e.Run(p, nil, q)
			return false, err
		}
		e.RegisterFaultTargets(a.faults(seed))
		a.crash = e.CrashTargets()
		// Link-fault nodes: the shuffle tier plus two worker nodes, so drawn
		// topologies cut worker->shuffle data paths (where failover matters)
		// as well as intra-tier links.
		for i := 0; i < qcfg.ShuffleServers; i++ {
			node, err := e.ShuffleNodeName(i)
			if err != nil {
				return nil, err
			}
			a.nodes = append(a.nodes, node)
		}
		for w := 0; w < 2 && w < qcfg.Workers; w++ {
			node, err := e.WorkerNodeName(w)
			if err != nil {
				return nil, err
			}
			a.nodes = append(a.nodes, node)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown platform %q", p)
	}
	slices.Sort(a.nodes)
	a.nodes = slices.Compact(a.nodes)
	return a, nil
}

// checked is a platform that records operation histories and declares
// standing invariants.
type checked interface {
	SetRecorder(*check.History)
	RegisterInvariants(*check.Registry)
}

// watch attaches one recorded history to every platform, then registers
// their invariants, in order, on one registry.
func watch(k *sim.Kernel, dbs ...checked) (*check.History, *check.Registry) {
	h, reg := check.NewHistory(k), &check.Registry{}
	for _, db := range dbs {
		db.SetRecorder(h)
	}
	for _, db := range dbs {
		db.RegisterInvariants(reg)
	}
	return h, reg
}

// faults creates the arm's engine with the link plane and the
// network-degradation hooks (seeded from the arm seed) registered, ready for
// the platform's own targets.
func (a *checkedArm) faults(seed uint64) *faults.Engine {
	net := a.env.Net
	net.SetLinkSeed(seed ^ 0x4c494e4b) // "LINK"
	a.eng = faults.NewEngine(a.env.K)
	a.eng.RegisterLinkPlane(faults.LinkPlane{Block: net.BlockLink, Gray: net.SetLinkFault, Heal: net.HealLink})
	registerNetFaults(a.eng, net, seed)
	return a.eng
}

// driveCounts are the per-run operation counters drive accumulates.
type driveCounts struct {
	ops, errs, writes, werrs int
	elapsed                  time.Duration
}

// drive launches closed-loop clients running op against platform plat and runs
// the simulation to completion. Client processes are named
// "<platform>-<role>-c<i>", which recorded histories carry. Each client
// draws from its own fork of root. When pace > 0
// each client instead fires its ops on a fixed schedule spanning pace
// (client offsets stagger the slots): a closed loop would let an arm that
// fails fast burn its whole op budget inside one fault window while an arm
// that fails slow rides the window out, so an availability comparison would
// measure retry latency, not recovery. On a fixed schedule both arms attempt
// the same op at the same instant, and success depends only on the system's
// state at that instant.
func drive(env *platform.Env, plat taxonomy.Platform, role string, clients, totalOps int, root *stats.RNG, pace time.Duration,
	op func(p *sim.Proc, rng *stats.RNG, client, i int) (bool, error)) driveCounts {
	per := totalOps / clients
	if per < 1 {
		per = 1
	}
	slot := pace / time.Duration(per)
	bar := sim.NewBarrier(env.K, clients)
	var dc driveCounts
	for c := 0; c < clients; c++ {
		rng := root.Fork()
		offset := slot * time.Duration(c) / time.Duration(clients)
		env.K.Go(fmt.Sprintf("%s-%s-c%d", platformName(plat), role, c), func(p *sim.Proc) {
			defer bar.Done()
			for i := 0; i < per; i++ {
				if target := offset + slot*time.Duration(i); p.Now() < target {
					p.Sleep(target - p.Now())
				}
				dc.ops++
				write, err := op(p, rng, c, i)
				if write {
					dc.writes++
				}
				if err != nil {
					dc.errs++
					if write {
						dc.werrs++
					}
				}
			}
		})
	}
	env.K.Go(platformName(plat)+"-measure", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		dc.elapsed = p.Now()
	})
	env.K.Run()
	return dc
}

// collect drains every checker after a run — linearizability over the
// recorded history, structural violations, and the standing invariants —
// tagging findings with platform and seed. It returns the arm-local findings
// and marks; the caller folds them into the study during the ordered merge.
func collect(p taxonomy.Platform, seed uint64, h *check.History, reg *check.Registry, at time.Duration) ([]SafetyViolation, []trace.Mark) {
	var vs []check.Violation
	vs = append(vs, h.CheckLinearizability()...)
	vs = append(vs, h.CheckExternalConsistency()...)
	vs = append(vs, h.Structural()...)
	vs = append(vs, reg.Check(at)...)
	var out []SafetyViolation
	var marks []trace.Mark
	for _, v := range vs {
		v.Platform = string(p)
		out = append(out, SafetyViolation{Seed: seed, Violation: v})
		marks = append(marks, trace.Mark{
			At:   v.At,
			Name: fmt.Sprintf("VIOLATION %s %s (seed %d)", v.Kind, v.Key, seed),
		})
	}
	return out, marks
}

// faultMarks renders an engine's applied faults as timeline marks.
func faultMarks(eng *faults.Engine) []trace.Mark {
	var marks []trace.Mark
	for _, a := range eng.Applied {
		marks = append(marks, trace.Mark{At: a.At, Name: a.Label()})
	}
	return marks
}

// findRow returns the first row match accepts, or nil.
func findRow[T any](rows []T, match func(*T) bool) *T {
	for i := range rows {
		if match(&rows[i]) {
			return &rows[i]
		}
	}
	return nil
}

// platformName is a platform's lower-case process-name prefix.
func platformName(p taxonomy.Platform) string { return strings.ToLower(string(p)) }
