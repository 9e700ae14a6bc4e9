package bigquery

import (
	"reflect"
	"testing"
	"time"

	"hyperprof/internal/sim"
)

// TestPageRankMatchesReference checks the iterative analytics query against
// the serial oracle: the distributed rank vector must equal
// ReferencePageRank exactly, fault-free at several iteration counts and with
// a shuffle server crashing in the middle of a three-iteration query.
func TestPageRankMatchesReference(t *testing.T) {
	run := func(t *testing.T, iters int, crashAt time.Duration) (*Engine, *Result, time.Duration) {
		t.Helper()
		env, e := newEngine(t, 5)
		var res *Result
		var err error
		var end time.Duration
		env.K.Go("client", func(p *sim.Proc) {
			if crashAt > 0 {
				env.K.Schedule(crashAt, func() {
					if err := e.FailShuffleServer(0); err != nil {
						t.Error(err)
					}
				})
			}
			res, err = e.Run(p, nil, Query{Kind: PageRank, Iterations: iters})
			end = p.Now()
			e.Stop()
		})
		env.K.Run()
		if err != nil {
			t.Fatal(err)
		}
		if env.K.Live() != 0 {
			t.Fatalf("leaked procs: %d", env.K.Live())
		}
		return e, res, end
	}
	for _, iters := range []int{1, 2, 3, 5} {
		e, res, _ := run(t, iters, 0)
		if want := e.ReferencePageRank(iters); !reflect.DeepEqual(res.Groups, want) {
			t.Errorf("%d iterations: ranks %v, reference %v", iters, res.Groups, want)
		}
	}
	// At 100ms the crash lands inside the first round: later puts fail over
	// to another server, and one stored slot is lost and re-executed.
	const crashAt = 100 * time.Millisecond
	e, res, end := run(t, 3, crashAt)
	if end <= crashAt {
		t.Fatalf("query finished at %v, before the crash at %v", end, crashAt)
	}
	if e.RePuts == 0 || e.Speculative == 0 {
		t.Fatalf("re-puts %d, speculative re-executions %d: want both, or the crash missed the query", e.RePuts, e.Speculative)
	}
	if want := e.ReferencePageRank(3); !reflect.DeepEqual(res.Groups, want) {
		t.Errorf("3 iterations with a shuffle crash: ranks %v, reference %v", res.Groups, want)
	}
}
