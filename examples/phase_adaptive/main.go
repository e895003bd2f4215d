// Phase adaptivity: watch SNUG's G/T vectors re-latch as vortex moves
// through its program phases (the paper's Figure 2 behaviour), using the
// public monitor state exposed by the SNUG controller.
//
//	go run ./examples/phase_adaptive
package main

import (
	"fmt"
	"log"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/schemes"
)

func main() {
	cfg := config.TestScale()
	workload := []string{"vortex", "vortex", "gzip", "mesa"}

	streams, err := cmp.WorkloadStreams(cfg, workload, 60_000)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := cmp.NewSystem(cfg, "SNUG", streams)
	if err != nil {
		log.Fatal(err)
	}
	snug := sys.Controller().(*schemes.SNUG)

	fmt.Println("epoch-by-epoch taker-set counts per core (vortex is phased):")
	fmt.Printf("%-10s %-9s %8s %8s %8s %8s %10s\n",
		"cycles", "stage", workload[0], workload[1], workload[2], workload[3], "spills")
	const step = 250_000
	var res = sys.Run(step)
	for t := int64(step); t <= 3_000_000; t += step {
		counts := make([]int, len(workload))
		for i := range workload {
			counts[i] = snug.Monitor(i).GT().TakerCount()
		}
		fmt.Printf("%-10d %-9s %8d %8d %8d %8d %10d\n",
			t, snug.Stage(), counts[0], counts[1], counts[2], counts[3], snug.Report().Spills)
		res = sys.Run(step)
	}
	fmt.Printf("\nfinal throughput: %.4f; stage switches: %d; stranded blocks dropped: %d\n",
		res.Throughput(), snug.StageSwitches(), snug.Report().StrandedDropped)
	fmt.Println("vortex's taker-set count shifts with its phases; the light")
	fmt.Println("co-runners (gzip, mesa) stay almost entirely givers.")
}
