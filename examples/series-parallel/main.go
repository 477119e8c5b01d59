// Series-parallel: the paper's future-work extension in action. A diamond
// workflow — object detection fanning out to concurrent question answering
// and text-to-speech, joining into compression — is an ordinary workflow
// DAG: the profiler measures each decision group (the parallel stage as
// the maximum over its branches), the synthesizer builds its hints, and
// it serves on the real cluster substrate: every branch holds its own pod,
// pays warm-pool specialization or a cold start, queues when the node is
// out of capacity, and the join waits for the slowest branch.
//
//	go run ./examples/series-parallel
package main

import (
	"fmt"
	"log"
	"time"

	"janus"
)

func main() {
	// Stages run in order; qa and ts are concurrent branches that join.
	w, err := janus.NewSeriesParallelWorkflow("diamond", 3500*time.Millisecond,
		[][]string{{"od"}, {"qa", "ts"}, {"ico"}})
	if err != nil {
		log.Fatal(err)
	}
	coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("reducing the diamond to an effective chain (parallel stage -> max-of-branches profile)...")
	dep, err := janus.Deploy(w, janus.DeployOptions{
		Functions:        janus.Catalog(),
		Colocation:       coloc,
		Interference:     janus.DefaultInterference(),
		Seed:             3,
		SamplesPerConfig: 1500,
		BudgetStepMs:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < dep.Profiles.Len(); i++ {
		fmt.Printf("  stage %d: %-22s L(99, Kmin)=%v\n", i, dep.Profiles.At(i).Function, dep.Profiles.At(i).L(99, 1000))
	}
	fmt.Printf("hints: %d tables, %d condensed ranges\n", dep.Bundle().Stages(), dep.Bundle().TotalRanges())

	// Serving runs the fork-join DAG on the discrete-event cluster — not a
	// sequential replay loop — so the numbers below include cold starts,
	// capacity queueing, and per-stage decision overhead.
	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow:          w,
		Functions:         janus.Catalog(),
		N:                 500,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      janus.DefaultInterference(),
		Seed:              9,
	})
	if err != nil {
		log.Fatal(err)
	}
	ex, err := janus.NewExecutor(janus.DefaultExecutorConfig(), janus.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	traces, err := ex.Run(reqs, dep.Allocator("janus"))
	if err != nil {
		log.Fatal(err)
	}
	var worst time.Duration
	cold, parked := 0, 0
	for _, tr := range traces {
		worst = max(worst, tr.E2E)
		parked += tr.Parked
		for _, st := range tr.Stages {
			if st.Cold {
				cold++
			}
		}
	}
	fmt.Printf("\nserved %d requests on the cluster substrate: mean %.0f millicores (branches included)\n",
		len(traces), janus.MeanMillicores(traces))
	fmt.Printf("worst e2e %v (SLO %v), SLO violations %.2f%%, hints misses %.2f%%\n",
		worst.Round(time.Millisecond), w.SLO(),
		janus.SLOViolationRate(traces)*100, janus.MissRate(traces)*100)
	fmt.Printf("substrate events: %d cold starts, %d capacity parkings\n", cold, parked)
}
