// Dbaccel: profile the simulated Spanner-like database, derive the
// analytical model's inputs from the observed traces and profile, and
// compare hardware-acceleration strategies — the §6 workflow end to end:
// what does an 8x sea of accelerators buy, on-chip vs off-chip, synchronous
// vs asynchronous vs chained, and with vs without software co-design of the
// storage and remote-work dependencies?
//
// Run with: go run ./examples/dbaccel
package main

import (
	"fmt"
	"log"

	"hyperprof"
	"hyperprof/internal/model"
)

func main() {
	cfg := hyperprof.DefaultCharStudyConfig()
	cfg.Ops.Spanner = 1200
	cfg.Ops.BigTable = 50 // minimal; this example focuses on Spanner
	cfg.Ops.BigQuery = 20
	ch, err := cfg.Characterize()
	if err != nil {
		log.Fatal(err)
	}

	sys, err := ch.DeriveSystem(hyperprof.Spanner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Model inputs derived from the profile ===")
	fmt.Printf("  mean CPU time per query      %8.3f ms\n", sys.CPUTime*1e3)
	fmt.Printf("  mean non-CPU dependency time %8.3f ms\n", sys.DepTime*1e3)
	fmt.Printf("  measured CPU/dep sync factor f = %.2f\n", sys.F)
	fmt.Println("  accelerated components (fraction of CPU):")
	for _, c := range sys.Components {
		fmt.Printf("    %-18s %5.1f%%\n", c.Name, c.Time/sys.CPUTime*100)
	}

	accel := sys.WithUniformSpeedup(8)
	offBytes := map[string]float64{}
	for _, c := range accel.Components {
		offBytes[c.Name] = ch.QueryBytes[hyperprof.Spanner]
	}
	fmt.Println("\n=== An 8x sea of accelerators, by execution model ===")
	for _, inv := range hyperprof.Invocations() {
		s := accel.Configure(inv, offBytes)
		fmt.Printf("  %-18s %5.2fx end-to-end\n", inv, s.Speedup())
	}

	fmt.Println("\n=== Hardware alone vs hardware-software co-design ===")
	chained := accel.Configure(model.ChainedOnChip, nil)
	fmt.Printf("  chained accelerators, dependencies kept:    %5.2fx\n", chained.Speedup())
	noDep := chained.WithoutDependencies()
	fmt.Printf("  chained accelerators + IO/remote co-design: %5.2fx\n",
		sys.BaselineE2E()/noDep.AcceleratedE2E())
	fmt.Println("\nThe co-designed number is the paper's headline: eliminating storage")
	fmt.Println("and remote-work overheads matters as much as the accelerators.")
}
