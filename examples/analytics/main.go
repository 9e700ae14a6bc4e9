// Analytics: profile the simulated BigQuery-like engine under its calibrated
// workload — the paper's data-analytics scenario — and inspect where its
// time and cycles go: large scans dominated by distributed storage, shuffle
// waits, and a CPU profile dominated by taxes rather than query operators.
//
// Run with: go run ./examples/analytics
package main

import (
	"fmt"
	"log"

	"hyperprof"
	"hyperprof/internal/taxonomy"
	"hyperprof/internal/trace"
)

func main() {
	cfg := hyperprof.DefaultCharStudyConfig()
	cfg.Ops.Spanner = 50 // minimal; this example focuses on BigQuery
	cfg.Ops.BigTable = 50
	cfg.Ops.BigQuery = 200
	ch, err := cfg.Characterize()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Where does an analytics query's time go? (Figure 2) ===")
	for _, g := range hyperprof.Figure2(ch)[hyperprof.BigQuery] {
		if g.Queries == 0 {
			continue
		}
		fmt.Printf("  %-18s %5.1f%% of queries: %4.1f%% CPU, %4.1f%% IO, %4.1f%% remote work\n",
			g.Group, g.QueryFrac*100, g.CPUFrac*100, g.IOFrac*100, g.RemoteFrac*100)
	}

	fmt.Println("\n=== Where do its CPU cycles go? (Figures 3 and 4) ===")
	broad := hyperprof.Figure3(ch)[hyperprof.BigQuery]
	fmt.Printf("  Core compute %4.1f%%, datacenter taxes %4.1f%%, system taxes %4.1f%%\n",
		broad[taxonomy.CoreCompute]*100, broad[taxonomy.DatacenterTax]*100, broad[taxonomy.SystemTax]*100)
	fmt.Println("  Core-compute operators:")
	core := hyperprof.Figure4(ch)[hyperprof.BigQuery]
	for _, cat := range taxonomy.BigQueryCoreCompute() {
		if f, ok := core[cat]; ok && f > 0 {
			fmt.Printf("    %-15s %5.1f%%\n", cat, f*100)
		}
	}

	fmt.Println("\n=== Hottest leaf functions (GWP-style) ===")
	for _, fn := range ch.Prof(hyperprof.BigQuery).TopFunctions(hyperprof.BigQuery, 8) {
		fmt.Printf("    %-32s %-18s %v\n", fn.Function, fn.Category, fn.CPU.Round(1e6))
	}

	fmt.Println("\n=== The paper's conclusion, measured here ===")
	stats := hyperprof.Table6(ch)[hyperprof.BigQuery]
	fmt.Printf("  IPC %.2f with L1I MPKI %.1f: analytics code is simple and cache-friendly,\n", stats.IPC, stats.L1I)
	var ioRemote float64
	for _, t := range ch.Traces[hyperprof.BigQuery] {
		b := t.ComputeBreakdown()
		ioRemote += b.Frac(trace.IO) + b.Frac(trace.Remote)
	}
	ioRemote /= float64(len(ch.Traces[hyperprof.BigQuery]))
	fmt.Printf("  but %.0f%% of end-to-end time is storage and shuffle: accelerating the\n", ioRemote*100)
	fmt.Println("  CPU alone cannot speed these queries up much (see examples/dbaccel).")
}
