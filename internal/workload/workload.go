// Package workload drives the platform simulations with calibrated
// operation mixes — the synthetic stand-in for the live production traffic
// the paper profiles (see the substitution table in DESIGN.md). Each
// platform has one operation source (SpannerArrivals, BigTableArrivals,
// BigQueryArrivals) and three arrival models drive it: closed-loop clients
// that issue traced operations with exponential think times until a global
// budget is exhausted (closedLoop), open-loop Poisson arrivals (openLoop),
// and multi-tenant overload (Overload). The open-loop models share one
// arrival clock and every shaped model one envelope (see ArrivalShape).
// Drivers shut the platform down once their work drains.
package workload

import (
	"fmt"
	"time"

	"hyperprof/internal/bigquery"
	"hyperprof/internal/bigtable"
	"hyperprof/internal/platform"
	"hyperprof/internal/sim"
	"hyperprof/internal/spanner"
	"hyperprof/internal/stats"
	"hyperprof/internal/taxonomy"
)

// Run is a handle to a scheduled workload. Errors are collected rather than
// aborting the simulation.
type Run struct {
	// Completed counts operations that finished (successfully or not).
	Completed int
	// Errors holds every operation error encountered.
	Errors []error
	// Done fires when all clients have exited.
	Done *sim.Signal
}

func (r *Run) fail(op string, err error) {
	r.Errors = append(r.Errors, fmt.Errorf("%s: %w", op, err))
}

// Err returns the first error, or nil.
func (r *Run) Err() error {
	if len(r.Errors) > 0 {
		return r.Errors[0]
	}
	return nil
}

// SpannerMix is the Spanner operation mix. Weights need not sum to 1.
type SpannerMix struct {
	Reads, Writes, Queries float64
	StrongReadFrac         float64
}

// DefaultSpannerMix returns the calibrated default: read-dominated OLTP.
func DefaultSpannerMix() SpannerMix {
	return SpannerMix{Reads: 0.60, Writes: 0.28, Queries: 0.12, StrongReadFrac: 0.10}
}

// Spanner schedules a Spanner workload of total operations over the given
// client count. Call env.K.Run() afterwards to execute it. Optional opts
// shape the clients' think times; omitted, the legacy homogeneous Exp
// schedule is reproduced exactly.
func Spanner(env *platform.Env, db *spanner.DB, mix SpannerMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	source := func(rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.Reads, mix.Writes, mix.Queries})
		val := []byte("spanner-workload-value-0123456789abcdef")
		return func() func(p *sim.Proc) error {
			g := rng.Intn(db.NumGroups())
			row := db.PickRow()
			op := picker.Next()
			// Unlike SpannerArrivals, only a read draws its strong flag.
			strong := op == 0 && rng.Bool(mix.StrongReadFrac)
			return spannerOp(env, db, op, g, row, strong, val)
		}
	}
	return closedLoop(env, "spanner", clients, total, time.Millisecond, opts, db.Stop, source)
}

// BigTableMix is the BigTable operation mix.
type BigTableMix struct {
	Gets, Puts, Scans float64
}

// DefaultBigTableMix returns the calibrated default.
func DefaultBigTableMix() BigTableMix {
	return BigTableMix{Gets: 0.55, Puts: 0.35, Scans: 0.10}
}

// BigTable schedules a BigTable workload (see Spanner).
func BigTable(env *platform.Env, db *bigtable.DB, mix BigTableMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	return closedLoop(env, "bigtable", clients, total, time.Millisecond, opts, nil,
		BigTableArrivals(env, db, mix, "bigtable-workload-value-0123456789abcdef"))
}

// BigQueryMix is the BigQuery query mix.
type BigQueryMix struct {
	ScanAgg, Join, Report float64
}

// DefaultBigQueryMix returns the calibrated default: mostly large analytic
// scans, some joins, a tail of small dashboard queries.
func DefaultBigQueryMix() BigQueryMix {
	return BigQueryMix{ScanAgg: 0.50, Join: 0.35, Report: 0.15}
}

// BigQuery schedules a BigQuery workload (see Spanner).
func BigQuery(env *platform.Env, e *bigquery.Engine, mix BigQueryMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	return closedLoop(env, "bigquery", clients, total, 5*time.Millisecond, opts, e.Stop, BigQueryArrivals(env, e, mix))
}

// closedLoop is the one closed-loop driver behind Spanner, BigTable and
// BigQuery: clients processes named "<name>-client-<i>", each with its own
// forked RNG bound to source, issue operations until the shared budget of
// total is spent, thinking an Exp(think) time (shaped by opts) after each.
// stop, when non-nil, shuts the platform down once every client has exited.
func closedLoop(env *platform.Env, name string, clients, total int, think time.Duration, opts []ClosedLoopOpts,
	stop func(), source func(rng *stats.RNG) func() func(p *sim.Proc) error) *Run {
	run := &Run{Done: sim.NewSignal(env.K)}
	remaining := total
	bar := sim.NewBarrier(env.K, clients)
	for c := 0; c < clients; c++ {
		rng := env.RNG.Fork()
		next := source(rng)
		thinkFor := closedLoopShape(opts).thinkShaper(rng)
		env.K.Go(fmt.Sprintf("%s-client-%d", name, c), func(p *sim.Proc) {
			defer bar.Done()
			for remaining > 0 {
				remaining--
				err := next()(p)
				run.Completed++
				if err != nil {
					run.fail(name, err)
				}
				p.Sleep(thinkFor(p.Now(), float64(think)))
			}
		})
	}
	env.K.Go(name+"-shutdown", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		if stop != nil {
			stop()
		}
		run.Done.Fire()
	})
	return run
}

// OpenLoopResult extends Run with latency observations.
type OpenLoopResult struct {
	*Run
	// Latencies collects per-operation end-to-end latencies (seconds): an
	// exact stats.Summary by default, or whatever Recorder the caller passed
	// via OpenLoopOpts (fleet-scale studies use a bounded-memory sketch).
	Latencies stats.Recorder
}

// openLoop is the shared Poisson arrival helper behind the per-platform
// open-loop drivers: operations arrive at ratePerSec regardless of
// completions — the arrival model behind latency SLOs (queueing grows with
// load instead of self-throttling as in the closed-loop drivers).
//
// setup receives the driver's forked RNG and returns the per-arrival prepare
// function; prepare is called on the arrival process after each gap sleep (so
// parameter draws interleave with gap draws in arrival order, keeping the
// schedule a pure function of the seed) and returns the operation to run in
// its own process. shutdown runs after the last operation completes.
//
// The arrival instants come from the shape's arrival clock (see
// ArrivalShape.arrivals): with the zero shape exactly one Exp gap per
// arrival, unchanged from the legacy driver.
func openLoop(env *platform.Env, name string, ratePerSec float64, total int, opts OpenLoopOpts,
	setup func(rng *stats.RNG) func() func(p *sim.Proc) error, shutdown func()) *OpenLoopResult {
	lat := opts.Latencies
	if lat == nil {
		lat = &stats.Summary{}
	}
	res := &OpenLoopResult{
		Run:       &Run{Done: sim.NewSignal(env.K)},
		Latencies: lat,
	}
	if ratePerSec <= 0 || total <= 0 {
		res.Run.fail(name, fmt.Errorf("invalid rate %v or total %d", ratePerSec, total))
		res.Done.Fire()
		return res
	}
	rng := env.RNG.Fork()
	prepare := setup(rng)
	bar := sim.NewBarrier(env.K, total)
	meanGap := float64(time.Second) / ratePerSec

	launch := func(p *sim.Proc) {
		op := prepare()
		env.K.Go(name+"-op", func(op2 *sim.Proc) {
			defer bar.Done()
			start := op2.Now()
			err := op(op2)
			res.Completed++
			if err != nil {
				res.fail(name, err)
			}
			res.Latencies.Add((op2.Now() - start).Seconds())
		})
	}
	arrive := opts.Shape.arrivals(rng)
	gap := func() float64 { return meanGap }
	env.K.Go(name+"-arrivals", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			arrive(p, gap, 0)
			launch(p)
		}
	})
	env.K.Go(name+"-shutdown", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		if shutdown != nil {
			shutdown()
		}
		res.Done.Fire()
	})
	return res
}

// SpannerOpenLoop schedules an open-loop Spanner workload: Poisson arrivals
// at ratePerSec, shaped and recorded as opts says.
func SpannerOpenLoop(env *platform.Env, db *spanner.DB, mix SpannerMix, ratePerSec float64, total int, opts OpenLoopOpts) *OpenLoopResult {
	return openLoop(env, "spanner-openloop", ratePerSec, total, opts,
		SpannerArrivals(env, db, mix, "spanner-openloop-value-0123456789abcdef"), db.Stop)
}

// BigTableOpenLoop schedules an open-loop BigTable workload: Poisson
// arrivals at ratePerSec, shaped and recorded as opts says.
func BigTableOpenLoop(env *platform.Env, db *bigtable.DB, mix BigTableMix, ratePerSec float64, total int, opts OpenLoopOpts) *OpenLoopResult {
	return openLoop(env, "bigtable-openloop", ratePerSec, total, opts,
		BigTableArrivals(env, db, mix, "bigtable-openloop-value-0123456789abcdef"), nil)
}

// BigQueryOpenLoop schedules an open-loop BigQuery workload: Poisson
// arrivals at ratePerSec, shaped and recorded as opts says.
func BigQueryOpenLoop(env *platform.Env, e *bigquery.Engine, mix BigQueryMix, ratePerSec float64, total int, opts OpenLoopOpts) *OpenLoopResult {
	return openLoop(env, "bigquery-openloop", ratePerSec, total, opts, BigQueryArrivals(env, e, mix), e.Stop)
}

// SpannerArrivals is the arrival source of an open-loop Spanner mix. Bound
// to an RNG, it returns a generator whose every call draws one arrival's
// group, Zipf row, operation and strong-read flag and returns the traced
// operation; commits write val.
func SpannerArrivals(env *platform.Env, db *spanner.DB, mix SpannerMix, val string) func(rng *stats.RNG) func() func(p *sim.Proc) error {
	return func(rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.Reads, mix.Writes, mix.Queries})
		val := []byte(val)
		return func() func(p *sim.Proc) error {
			g := rng.Intn(db.NumGroups())
			row := db.PickRow()
			op := picker.Next()
			return spannerOp(env, db, op, g, row, rng.Bool(mix.StrongReadFrac), val)
		}
	}
}

// spannerOp is the traced Spanner operation both Spanner sources run: a
// read (op 0), a commit of val (op 1) or a query.
func spannerOp(env *platform.Env, db *spanner.DB, op, g, row int, strong bool, val []byte) func(p *sim.Proc) error {
	return func(p *sim.Proc) error {
		tr := env.Tracer.Start(taxonomy.Spanner, p.Now())
		var err error
		switch op {
		case 0:
			_, err = db.Read(p, tr, g, row, strong)
		case 1:
			err = db.Commit(p, tr, g, row, val)
		default:
			_, err = db.Query(p, tr, g, row)
		}
		env.Tracer.Finish(tr, p.Now())
		return err
	}
}

// BigTableArrivals is the arrival source of an open-loop BigTable mix (see
// SpannerArrivals); puts write val.
func BigTableArrivals(env *platform.Env, db *bigtable.DB, mix BigTableMix, val string) func(rng *stats.RNG) func() func(p *sim.Proc) error {
	return func(rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.Gets, mix.Puts, mix.Scans})
		val := []byte(val)
		return func() func(p *sim.Proc) error {
			tb := rng.Intn(db.NumTablets())
			row := db.PickRow()
			op := picker.Next()
			return func(p *sim.Proc) error {
				tr := env.Tracer.Start(taxonomy.BigTable, p.Now())
				var err error
				switch op {
				case 0:
					_, err = db.Get(p, tr, tb, row)
				case 1:
					err = db.Put(p, tr, tb, row, val)
				default:
					_, err = db.Scan(p, tr, tb, row)
				}
				env.Tracer.Finish(tr, p.Now())
				return err
			}
		}
	}
}

// BigQueryArrivals is the arrival source of an open-loop BigQuery mix (see
// SpannerArrivals).
func BigQueryArrivals(env *platform.Env, e *bigquery.Engine, mix BigQueryMix) func(rng *stats.RNG) func() func(p *sim.Proc) error {
	return func(rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.ScanAgg, mix.Join, mix.Report})
		return func() func(p *sim.Proc) error {
			q := bigquery.Query{Threshold: int64(rng.Intn(900))}
			switch picker.Next() {
			case 0:
				q.Kind = bigquery.ScanAgg
			case 1:
				q.Kind = bigquery.JoinQuery
			default:
				q.Kind = bigquery.Report
			}
			return func(p *sim.Proc) error {
				tr := env.Tracer.Start(taxonomy.BigQuery, p.Now())
				_, err := e.Run(p, tr, q)
				env.Tracer.Finish(tr, p.Now())
				return err
			}
		}
	}
}
