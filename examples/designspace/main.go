// Designspace: the paper's closing pitch is that a validated analytical
// model enables "complete design space explorations of different
// acceleration strategies". This example does exactly that on a profiled
// Spanner deployment, sweeping the two dimensions the paper leaves as
// future work (§6.4): partial synchronization between accelerators, and
// mixed on-/off-chip placement — plus the extended three-accelerator chain
// with a real compression stage.
//
// Run with: go run ./examples/designspace
package main

import (
	"fmt"
	"log"
	"strings"

	"hyperprof"
)

func main() {
	cfg := hyperprof.DefaultCharStudyConfig()
	cfg.Ops.Spanner = 1000
	cfg.Ops.BigTable = 50
	cfg.Ops.BigQuery = 60
	ch, err := cfg.Characterize()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Sweep 1: partial synchronization (8x accelerators, on-chip) ===")
	fmt.Println("g = 1 is fully synchronous, g = 0 fully asynchronous (Eq 5).")
	sys, err := ch.DeriveSystem(hyperprof.Spanner)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range hyperprof.PartialSyncSweep(sys, []float64{1, 0.75, 0.5, 0.25, 0}) {
		bar := strings.Repeat("#", int(pt.Speedup*20))
		fmt.Printf("  g=%.2f  %.3fx  %s\n", pt.G, pt.Speedup, bar)
	}

	fmt.Println("\n=== Sweep 2: which accelerators must be on-chip? ===")
	for _, p := range []hyperprof.Platform{hyperprof.Spanner, hyperprof.BigQuery} {
		rows, err := ch.MixedPlacementStudy(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(hyperprof.RenderMixedPlacement(p, rows))
	}

	fmt.Println("\n=== Sweep 3: which accelerator should be built next? ===")
	prio, err := ch.AcceleratorPriority(hyperprof.Spanner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hyperprof.RenderPriority(hyperprof.Spanner, prio))

	fmt.Println("\n=== Sweep 4: a third accelerator in the chain ===")
	r, err := hyperprof.ValidateChain3(7, 250)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hyperprof.RenderChain3(r))
	fmt.Println("\nThe compression stage runs the repository's real Snappy-format codec;")
	fmt.Println("the chain's digests are verified against a serial reference run.")
}
