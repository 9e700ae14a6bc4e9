package spanner

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"hyperprof/internal/netsim"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

func testEnv(seed uint64) *platform.Env {
	env := platform.NewEnv(seed, 1)
	env.Net = netsim.New(env.K, RecommendedNetConfig())
	return env
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Groups = 3
	cfg.RowsPerGroup = 500
	cfg.QueryScanRows = 50
	return cfg
}

func TestNewValidation(t *testing.T) {
	env := testEnv(1)
	bad := DefaultConfig()
	bad.Groups = 0
	if _, err := New(env, bad); err == nil {
		t.Fatal("zero groups accepted")
	}
	bad = DefaultConfig()
	bad.Regions = 2
	if _, err := New(env, bad); err == nil {
		t.Fatal("two regions accepted (majority needs 3)")
	}
}

func TestReadReturnsStoredValue(t *testing.T) {
	env := testEnv(2)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		tr := env.Tracer.Start(taxonomy.Spanner, p.Now())
		got, err = db.Read(p, tr, 1, 7, false)
		env.Tracer.Finish(tr, p.Now())
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 {
		t.Fatalf("value len = %d", len(got))
	}
	// Deterministic bootstrap pattern.
	if got[0] != byte(1*7+7*13) {
		t.Fatalf("value[0] = %d", got[0])
	}
	if db.Reads != 1 {
		t.Fatalf("reads = %d", db.Reads)
	}
}

func TestCommitThenReadRoundTrip(t *testing.T) {
	env := testEnv(3)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello spanner, this is new row content")
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		tr := env.Tracer.Start(taxonomy.Spanner, p.Now())
		if err = db.Commit(p, tr, 0, 3, want); err != nil {
			return
		}
		got, err = db.Read(p, tr, 0, 3, false)
		env.Tracer.Finish(tr, p.Now())
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q", got)
	}
}

func TestCommitAnnotatesRemoteWork(t *testing.T) {
	env := testEnv(4)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tr *trace.Trace
	env.K.Go("client", func(p *sim.Proc) {
		tr = env.Tracer.Start(taxonomy.Spanner, p.Now())
		err = db.Commit(p, tr, 0, 1, []byte("v"))
		env.Tracer.Finish(tr, p.Now())
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	b := tr.ComputeBreakdown()
	if b.Remote <= 0 {
		t.Fatalf("commit breakdown has no remote work: %+v", b)
	}
	// Majority wait spans at least one cross-region RTT.
	if b.Remote < 3*time.Millisecond {
		t.Fatalf("remote = %v, want >= one cross-region RTT", b.Remote)
	}
	if b.CPU <= 0 || b.IO <= 0 {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestStrongReadAddsRemote(t *testing.T) {
	env := testEnv(5)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var weak, strong trace.Breakdown
	env.K.Go("client", func(p *sim.Proc) {
		tr1 := env.Tracer.Start(taxonomy.Spanner, p.Now())
		db.Read(p, tr1, 0, 1, false)
		env.Tracer.Finish(tr1, p.Now())
		weak = tr1.ComputeBreakdown()

		tr2 := env.Tracer.Start(taxonomy.Spanner, p.Now())
		db.Read(p, tr2, 0, 1, true)
		env.Tracer.Finish(tr2, p.Now())
		strong = tr2.ComputeBreakdown()
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if weak.Remote != 0 {
		t.Fatalf("weak read has remote work: %+v", weak)
	}
	if strong.Remote <= 0 {
		t.Fatalf("strong read has no remote work: %+v", strong)
	}
}

func TestQueryEvaluatesPredicate(t *testing.T) {
	env := testEnv(6)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var matched int
	env.K.Go("client", func(p *sim.Proc) {
		matched, err = db.Query(p, nil, 2, 0)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Predicate: first byte odd. Bootstrap byte = g*7 + r*13; over 50
	// consecutive rows exactly half are odd (13 is odd).
	if matched != 25 {
		t.Fatalf("matched = %d, want 25", matched)
	}
}

func TestCompactionTriggersEveryN(t *testing.T) {
	env := testEnv(7)
	cfg := smallConfig()
	cfg.CompactionEvery = 3
	db, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		for i := 0; i < 7; i++ {
			if err = db.Commit(p, nil, 0, i, []byte("x")); err != nil {
				return
			}
		}
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if db.Compactions != 2 {
		t.Fatalf("compactions = %d, want 2 (7 commits / every 3)", db.Compactions)
	}
	// Compaction cycles must show up in the profile.
	cb := env.Prof.CategoryBreakdown(taxonomy.Spanner, taxonomy.CoreCompute)
	if cb[taxonomy.Compaction] <= 0 {
		t.Fatal("no compaction cycles profiled")
	}
}

func TestProfiledCategoriesCoverTable4(t *testing.T) {
	env := testEnv(8)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			db.Read(p, nil, i%3, db.PickRow(), i%7 == 0)
			if i%3 == 0 {
				db.Commit(p, nil, i%3, i, []byte("value"))
			}
			if i%10 == 0 {
				db.Query(p, nil, i%3, i)
			}
		}
		db.Stop()
	})
	env.K.Run()
	cb := env.Prof.CategoryBreakdown(taxonomy.Spanner, taxonomy.CoreCompute)
	for _, cat := range []taxonomy.Category{taxonomy.Read, taxonomy.Write, taxonomy.Consensus, taxonomy.Query, taxonomy.MiscCore, taxonomy.Uncategorized} {
		if cb[cat] <= 0 {
			t.Errorf("category %q has no cycles: %v", cat, cb)
		}
	}
	// Reads dominate the default mix.
	if cb[taxonomy.Read] <= cb[taxonomy.Write] {
		t.Errorf("read %.3f <= write %.3f", cb[taxonomy.Read], cb[taxonomy.Write])
	}
	// Taxes are present in roughly the Figure 3 proportion.
	bb := env.Prof.BroadBreakdown(taxonomy.Spanner)
	if bb[taxonomy.DatacenterTax] < 0.2 || bb[taxonomy.SystemTax] < 0.2 {
		t.Errorf("broad breakdown = %v", bb)
	}
}

func TestOutOfRangeGroup(t *testing.T) {
	env := testEnv(9)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.K.Go("client", func(p *sim.Proc) {
		if _, e := db.Read(p, nil, 99, 0, false); e == nil {
			t.Error("read of bad group accepted")
		}
		if e := db.Commit(p, nil, -1, 0, nil); e == nil {
			t.Error("commit to bad group accepted")
		}
		if _, e := db.Query(p, nil, 99, 0); e == nil {
			t.Error("query of bad group accepted")
		}
		db.Stop()
	})
	env.K.Run()
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int) {
		env := testEnv(42)
		db, err := New(env, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		env.K.Go("client", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				db.Read(p, nil, i%3, db.PickRow(), false)
				db.Commit(p, nil, i%3, i, []byte("abc"))
			}
			db.Stop()
		})
		end := env.K.Run()
		return end, db.Compactions
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, c1, e2, c2)
	}
}

func TestCommitSurvivesOneReplicaFailure(t *testing.T) {
	env := testEnv(20)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	env.K.Go("client", func(p *sim.Proc) {
		if err = db.StopReplica(0, 2); err != nil {
			return
		}
		if err = db.Commit(p, nil, 0, 5, []byte("majority-still-works")); err != nil {
			return
		}
		got, err = db.Read(p, nil, 0, 5, false)
		db.Stop()
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "majority-still-works" {
		t.Fatalf("read back %q", got)
	}
}

func TestCommitFailsWithoutQuorum(t *testing.T) {
	env := testEnv(21)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var commitErr error
	env.K.Go("client", func(p *sim.Proc) {
		db.StopReplica(1, 1)
		db.StopReplica(1, 2)
		commitErr = db.Commit(p, nil, 1, 5, []byte("doomed"))
		db.Stop()
	})
	env.K.Run()
	if !errors.Is(commitErr, ErrNoQuorum) {
		t.Fatalf("commit err = %v, want ErrNoQuorum", commitErr)
	}
	if env.K.Live() != 0 {
		t.Fatalf("leaked procs: %d", env.K.Live())
	}
}

func TestStrongReadFailsWithoutQuorum(t *testing.T) {
	env := testEnv(22)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	env.K.Go("client", func(p *sim.Proc) {
		db.StopReplica(2, 1)
		db.StopReplica(2, 2)
		_, readErr = db.Read(p, nil, 2, 1, true)
		// Weak reads are served from the leader and still work.
		if _, e := db.Read(p, nil, 2, 1, false); e != nil {
			t.Errorf("weak read failed: %v", e)
		}
		db.Stop()
	})
	env.K.Run()
	if !errors.Is(readErr, ErrNoQuorum) {
		t.Fatalf("strong read err = %v, want ErrNoQuorum", readErr)
	}
}

func TestStopReplicaValidation(t *testing.T) {
	env := testEnv(23)
	db, err := New(env, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.StopReplica(99, 0); err == nil {
		t.Error("bad group accepted")
	}
	if err := db.StopReplica(0, 99); err == nil {
		t.Error("bad region accepted")
	}
	db.Stop()
	env.K.Run()
}

func TestRowKeyMatchesFormat(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 5}, {7, 2999}, {12, 100000}, {123456, 987654321}} {
		if got, want := rowKey(c[0], c[1]), fmt.Sprintf("g%d/r%d", c[0], c[1]); got != want {
			t.Errorf("rowKey(%d, %d) = %q, want %q", c[0], c[1], got, want)
		}
	}
}
