// Package workload drives the platform simulations with calibrated
// operation mixes — the synthetic stand-in for the live production traffic
// the paper profiles (see the substitution table in DESIGN.md). Each driver
// spawns closed-loop clients that issue traced operations with exponential
// think times until a global budget is exhausted, then shuts the platform
// down so the simulation drains.
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
	run := &Run{Done: sim.NewSignal(env.K)}
	remaining := total
	bar := sim.NewBarrier(env.K, clients)
	for c := 0; c < clients; c++ {
		rng := env.RNG.Fork()
		picker := stats.NewWeighted(rng, []float64{mix.Reads, mix.Writes, mix.Queries})
		think := closedLoopShape(opts).thinkShaper(rng)
		env.K.Go(fmt.Sprintf("spanner-client-%d", c), func(p *sim.Proc) {
			defer bar.Done()
			val := []byte("spanner-workload-value-0123456789abcdef")
			for remaining > 0 {
				remaining--
				g := rng.Intn(db.NumGroups())
				row := db.PickRow()
				tr := env.Tracer.Start(taxonomy.Spanner, p.Now())
				var err error
				switch picker.Next() {
				case 0:
					strong := rng.Bool(mix.StrongReadFrac)
					_, err = db.Read(p, tr, g, row, strong)
				case 1:
					err = db.Commit(p, tr, g, row, val)
				default:
					_, err = db.Query(p, tr, g, row)
				}
				env.Tracer.Finish(tr, p.Now())
				run.Completed++
				if err != nil {
					run.fail("spanner", err)
				}
				p.Sleep(think(p.Now(), float64(time.Millisecond)))
			}
		})
	}
	env.K.Go("spanner-shutdown", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		db.Stop()
		run.Done.Fire()
	})
	return run
}

// BigTableMix is the BigTable operation mix.
type BigTableMix struct {
	Gets, Puts, Scans float64
}

// DefaultBigTableMix returns the calibrated default.
func DefaultBigTableMix() BigTableMix {
	return BigTableMix{Gets: 0.55, Puts: 0.35, Scans: 0.10}
}

// BigTable schedules a BigTable workload.
func BigTable(env *platform.Env, db *bigtable.DB, mix BigTableMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	run := &Run{Done: sim.NewSignal(env.K)}
	remaining := total
	bar := sim.NewBarrier(env.K, clients)
	for c := 0; c < clients; c++ {
		rng := env.RNG.Fork()
		picker := stats.NewWeighted(rng, []float64{mix.Gets, mix.Puts, mix.Scans})
		think := closedLoopShape(opts).thinkShaper(rng)
		env.K.Go(fmt.Sprintf("bigtable-client-%d", c), func(p *sim.Proc) {
			defer bar.Done()
			val := []byte("bigtable-workload-value-0123456789abcdef")
			for remaining > 0 {
				remaining--
				t := rng.Intn(db.NumTablets())
				row := db.PickRow()
				tr := env.Tracer.Start(taxonomy.BigTable, p.Now())
				var err error
				switch picker.Next() {
				case 0:
					_, err = db.Get(p, tr, t, row)
				case 1:
					err = db.Put(p, tr, t, row, val)
				default:
					_, err = db.Scan(p, tr, t, row)
				}
				env.Tracer.Finish(tr, p.Now())
				run.Completed++
				if err != nil {
					run.fail("bigtable", err)
				}
				p.Sleep(think(p.Now(), float64(time.Millisecond)))
			}
		})
	}
	env.K.Go("bigtable-shutdown", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		run.Done.Fire()
	})
	return run
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

// BigQuery schedules a BigQuery workload.
func BigQuery(env *platform.Env, e *bigquery.Engine, mix BigQueryMix, clients, total int, opts ...ClosedLoopOpts) *Run {
	run := &Run{Done: sim.NewSignal(env.K)}
	remaining := total
	bar := sim.NewBarrier(env.K, clients)
	for c := 0; c < clients; c++ {
		rng := env.RNG.Fork()
		picker := stats.NewWeighted(rng, []float64{mix.ScanAgg, mix.Join, mix.Report})
		think := closedLoopShape(opts).thinkShaper(rng)
		env.K.Go(fmt.Sprintf("bigquery-client-%d", c), func(p *sim.Proc) {
			defer bar.Done()
			for remaining > 0 {
				remaining--
				q := bigquery.Query{Threshold: int64(rng.Intn(900))}
				switch picker.Next() {
				case 0:
					q.Kind = bigquery.ScanAgg
				case 1:
					q.Kind = bigquery.JoinQuery
				default:
					q.Kind = bigquery.Report
				}
				tr := env.Tracer.Start(taxonomy.BigQuery, p.Now())
				_, err := e.Run(p, tr, q)
				env.Tracer.Finish(tr, p.Now())
				run.Completed++
				if err != nil {
					run.fail("bigquery", err)
				}
				p.Sleep(think(p.Now(), float64(5*time.Millisecond)))
			}
		})
	}
	env.K.Go("bigquery-shutdown", func(p *sim.Proc) {
		p.WaitBarrier(bar)
		e.Stop()
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
// With opts.Shape enabled the arrival instants come from thinning an
// envelope Poisson process at the shape's peak rate (see ArrivalShape);
// with the zero shape the draw sequence is exactly one Exp gap per arrival,
// unchanged from the legacy driver.
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
	env.K.Go(name+"-arrivals", func(p *sim.Proc) {
		if !opts.Shape.enabled() {
			for i := 0; i < total; i++ {
				p.Sleep(time.Duration(rng.Exp(meanGap)))
				launch(p)
			}
			return
		}
		sh := opts.Shape.withDefaults()
		maxMult := sh.maxMult()
		candGap := meanGap / maxMult
		var burst *burstEnv
		if sh.Burst {
			burst = newBurstEnv(rng, sh)
		}
		for accepted := 0; accepted < total; {
			p.Sleep(time.Duration(rng.Exp(candGap)))
			m := 1.0
			if burst != nil {
				m *= burst.mult(p.Now())
			}
			if sh.Diurnal {
				m *= sh.diurnalMult(p.Now())
			}
			if rng.Float64()*maxMult < m {
				accepted++
				launch(p)
			}
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
// group, Zipf row and operation and returns the traced operation; commits
// write val.
func SpannerArrivals(env *platform.Env, db *spanner.DB, mix SpannerMix, val string) func(rng *stats.RNG) func() func(p *sim.Proc) error {
	return func(rng *stats.RNG) func() func(p *sim.Proc) error {
		picker := stats.NewWeighted(rng, []float64{mix.Reads, mix.Writes, mix.Queries})
		val := []byte(val)
		return func() func(p *sim.Proc) error {
			g := rng.Intn(db.NumGroups())
			row := db.PickRow()
			op := picker.Next()
			strong := rng.Bool(mix.StrongReadFrac)
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
