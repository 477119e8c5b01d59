// DAG workflow: the node-granular engine serving a shape no stage
// decomposition can express. The six-node ML-inference pipeline fans
// preprocessing out to a detector and a classifier, routes the detector's
// regions through an extra OCR pass (the cross edge), joins all three at a
// fusion node, and publishes the result:
//
//	preprocess ─┬─> detect ──┬─────────> fuse ──> publish
//	            │            ├─> ocr ─────^
//	            └─> classify ┴────────────^
//
// Each node starts the instant its predecessors finish; detect and
// classify share one allocation decision (they form a decision group —
// identical predecessor sets, ready at the same moment), while ocr and
// fuse decide at their own readiness instants against the remaining SLO
// budget, looked up in the hints table synthesized for each group's
// descendant cone.
//
//	go run ./examples/dag-workflow
package main

import (
	"fmt"
	"log"
	"time"

	"janus"
)

func main() {
	w := janus.MLInferenceDAG()
	fmt.Printf("workflow %s: %d nodes, SLO %v, series-parallel: %v\n",
		w.Name(), w.Len(), w.SLO(), w.IsSeriesParallel())
	for i, g := range w.DecisionGroups() {
		names := ""
		for j, n := range g.Nodes {
			if j > 0 {
				names += " + "
			}
			names += n.Name
		}
		fmt.Printf("  decision group %d: %-20s (gated by %d predecessors)\n", i, names, len(g.Preds))
	}

	coloc, err := janus.NewColocationSampler([]float64{0.4, 0.4, 0.2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprofiling each decision group and synthesizing per-cone hints tables...")
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
	fmt.Printf("hints: %d tables (one per group's descendant cone), %d condensed ranges\n",
		dep.Bundle().Stages(), dep.Bundle().TotalRanges())

	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow: w, Functions: janus.Catalog(), N: 500,
		ArrivalRatePerSec: 2, Colocation: coloc,
		Interference: janus.DefaultInterference(), StageCorrelation: 0.5, Seed: 9,
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
	violations, misses, decisions, totalMC := 0, 0, 0, 0
	for _, tr := range traces {
		if tr.E2E > worst {
			worst = tr.E2E
		}
		if !tr.SLOMet() {
			violations++
		}
		misses += tr.Misses
		decisions += tr.Decisions
		totalMC += tr.TotalMillicores
	}
	fmt.Printf("\nserved %d requests: mean %.0f millicores over 6 pods, %d decisions per request\n",
		len(traces), float64(totalMC)/float64(len(traces)), decisions/len(traces))
	fmt.Printf("worst e2e %v (SLO %v), violations %.2f%%, hints misses %.2f%%\n",
		worst.Round(time.Millisecond), w.SLO(),
		float64(violations)/float64(len(traces))*100,
		float64(misses)/float64(decisions)*100)

	// The fusion join in action: fuse starts only after detect, classify,
	// AND ocr have all released their pods — readiness, not stages.
	// A stage's (Stage, Branch) coordinates name its workflow node.
	tr := traces[0]
	groups := w.DecisionGroups()
	fmt.Println("\nrequest 0 node schedule (start -> end):")
	for _, st := range tr.Stages {
		fmt.Printf("  %-10s group %d  %6v -> %6v\n", groups[st.Stage].Nodes[st.Branch].Name, st.Stage,
			st.Start.Round(time.Millisecond), st.End.Round(time.Millisecond))
	}
}
