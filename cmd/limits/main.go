// Command limits runs the sea-of-accelerators limit studies — the
// equivalents of the paper's Figures 9, 10, 13, 14 and 15 — on top of a
// fresh characterization run, and prints each artifact.
//
// Usage:
//
//	limits [-seed N] [-spanner N] [-bigtable N] [-bigquery N]
package main

import (
	"flag"
	"fmt"
	"log"

	"hyperprof"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("limits: ")
	cfg := hyperprof.DefaultCharStudyConfig()
	seed := flag.Uint64("seed", cfg.Seed, "deterministic run seed")
	spannerQ := flag.Int("spanner", cfg.Ops.Spanner, "Spanner operation count")
	bigtableQ := flag.Int("bigtable", cfg.Ops.BigTable, "BigTable operation count")
	bigqueryQ := flag.Int("bigquery", cfg.Ops.BigQuery, "BigQuery query count")
	extended := flag.Bool("extended", false, "also run the beyond-the-paper studies (partial sync, mixed placement, accelerator priority)")
	flag.Parse()
	cfg.Seed = *seed
	cfg.Ops.Spanner = *spannerQ
	cfg.Ops.BigTable = *bigtableQ
	cfg.Ops.BigQuery = *bigqueryQ

	ch, err := cfg.Characterize()
	if err != nil {
		log.Fatal(err)
	}
	fig9, err := hyperprof.Figure9(ch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hyperprof.RenderFigure9(fig9))
	fig10, err := hyperprof.Figure10(ch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hyperprof.RenderFigure10(fig10))
	fig13, err := hyperprof.Figure13(ch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hyperprof.RenderFigure13(fig13))
	fig14, err := hyperprof.Figure14(ch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hyperprof.RenderFigure14(fig14))
	fig15, err := hyperprof.Figure15(ch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hyperprof.RenderFigure15(fig15))

	if *extended {
		fmt.Println("=== Beyond the paper (§6.4 future work) ===")
		for _, p := range hyperprof.Platforms() {
			sys, err := ch.DeriveSystem(p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("Partial synchronization (%s, 8x accelerators):\n", p)
			for _, pt := range hyperprof.PartialSyncSweep(sys, []float64{1, 0.5, 0}) {
				fmt.Printf("  g=%.1f  %.3fx\n", pt.G, pt.Speedup)
			}
			rows, err := ch.MixedPlacementStudy(p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(hyperprof.RenderMixedPlacement(p, rows))
			prio, err := ch.AcceleratorPriority(p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(hyperprof.RenderPriority(p, prio))
			fmt.Println()
		}
	}
}
