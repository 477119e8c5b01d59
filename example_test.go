package janus_test

import (
	"fmt"
	"log"
	"time"

	"janus"
)

// ExampleNewChain defines the paper's intelligent-assistant application as
// a chain workflow: object detection, question answering, text-to-speech,
// under a 3 s end-to-end SLO.
func ExampleNewChain() {
	w, err := janus.NewChain("assistant", 3*time.Second, "od", "qa", "ts")
	if err != nil {
		log.Fatal(err)
	}
	// A chain's decision groups are its steps, one node each, in order.
	for _, g := range w.DecisionGroups() {
		fmt.Println(g.Nodes[0].Function)
	}
	fmt.Println("SLO:", w.SLO())
	// Output:
	// od
	// qa
	// ts
	// SLO: 3s
}

// ExampleDeploy runs the developer-side offline pipeline — profiling,
// hints synthesis, condensing — and asks the provider-side adapter for a
// decision, exactly as the README quickstart does. The reduced sample
// count keeps the example fast; paper-scale runs use the defaults.
func ExampleDeploy() {
	w, err := janus.NewChain("assistant", 3*time.Second, "od", "qa", "ts")
	if err != nil {
		log.Fatal(err)
	}
	coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	dep, err := janus.Deploy(w, janus.DeployOptions{
		Functions:        janus.Catalog(),
		Colocation:       coloc,
		Interference:     janus.DefaultInterference(),
		Seed:             3,
		SamplesPerConfig: 400,
		BudgetStepMs:     25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stages:", dep.Bundle().Stages())
	// A fresh request has its whole SLO as remaining budget: ask the
	// adapter how large the first function's pod should be.
	d, err := dep.Adapter.Decide(0, w.SLO())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hit:", d.Hit)
	// Output:
	// stages: 3
	// hit: true
}

// ExampleGenerateWorkload materializes a request sequence with pre-sampled
// runtime conditions: every serving system replays the identical draws,
// which is what makes the paper's system comparisons paired.
func ExampleGenerateWorkload() {
	w, err := janus.NewChain("assistant", 3*time.Second, "od", "qa", "ts")
	if err != nil {
		log.Fatal(err)
	}
	coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow:          w,
		Functions:         janus.Catalog(),
		N:                 100,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      janus.DefaultInterference(),
		StageCorrelation:  0.5,
		Seed:              3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("requests:", len(reqs))
	fmt.Println("draws per request:", len(reqs[0].Draws))
	// Output:
	// requests: 100
	// draws per request: 3
}

// ExampleNewDAGWorkflow serves a genuinely non-series-parallel DAG end to
// end through the facade: a diamond with a cross edge — fetch fans out to
// a detector and a classifier, the detector also feeds an OCR pass, and
// everything joins at a fuse node. No stage decomposition exists for this
// shape; the node-granular engine starts each node the moment its
// predecessors finish, shares one allocation decision across the
// detect/classify fork, and makes one decision per decision group against
// the remaining budget via the hints table for that group's descendant
// cone.
func ExampleNewDAGWorkflow() {
	w, err := janus.NewDAGWorkflow("vision", 1300*time.Millisecond,
		[]janus.WorkflowNode{
			{Name: "fetch", Function: "fe"},
			{Name: "detect", Function: "icl"},
			{Name: "classify", Function: "ico"},
			{Name: "ocr", Function: "aes-encrypt"},
			{Name: "fuse", Function: "redis-read"},
		},
		[][2]string{
			{"fetch", "detect"}, {"fetch", "classify"},
			{"detect", "ocr"},
			{"detect", "fuse"}, {"classify", "fuse"}, {"ocr", "fuse"},
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("series-parallel:", w.IsSeriesParallel())
	fmt.Println("decision groups:", len(w.DecisionGroups()))

	coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	// Offline: profile each decision group, synthesize and condense one
	// hints table per group's descendant cone.
	dep, err := janus.Deploy(w, janus.DeployOptions{
		Functions:        janus.Catalog(),
		Colocation:       coloc,
		Interference:     janus.DefaultInterference(),
		Seed:             3,
		SamplesPerConfig: 400,
		BudgetStepMs:     25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hints tables:", dep.Bundle().Stages())

	// Online: serve pre-sampled requests under the adapter.
	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow: w, Functions: janus.Catalog(), N: 40,
		ArrivalRatePerSec: 2, Colocation: coloc,
		Interference: janus.DefaultInterference(), StageCorrelation: 0.5, Seed: 7,
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
	fmt.Println("served:", len(traces))
	fmt.Println("nodes executed:", len(traces[0].Stages))
	fmt.Println("decisions:", traces[0].Decisions)
	// Output:
	// series-parallel: false
	// decision groups: 4
	// hints tables: 4
	// served: 40
	// nodes executed: 5
	// decisions: 4
}

// ExampleExecutor_RunMixed serves two tenants' workloads — each with its
// own allocator — as one merged arrival stream on one shared two-node
// cluster, then splits per-tenant metrics out of the mixed trace set.
func ExampleExecutor_RunMixed() {
	coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	workload := func(w *janus.Workflow, seed uint64) []*janus.Request {
		reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
			Workflow: w, Functions: janus.Catalog(), N: 50, Batch: 1,
			ArrivalRatePerSec: 2, Colocation: coloc,
			Interference: janus.DefaultInterference(), StageCorrelation: 0.5, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		return reqs
	}
	cfg := janus.DefaultExecutorConfig()
	cfg.Cluster = janus.ClusterConfig{
		Nodes: 2, NodeMillicores: 26000, PoolSize: 3, IdleMillicores: 100,
		Placement: janus.PlacementSpread,
	}
	ex, err := janus.NewExecutor(cfg, janus.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	byTenant, err := ex.RunMixed([]janus.TenantWorkload{
		{Tenant: "assistant", Requests: workload(janus.IntelligentAssistant(), 3),
			Allocator: &janus.FixedAllocator{System: "fixed", Sizes: []int{2000, 2000, 2000}}},
		{Tenant: "video", Requests: workload(janus.VideoAnalyze(), 4),
			Allocator: &janus.FixedAllocator{System: "fixed", Sizes: []int{1500, 1500, 1500}}},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, tenant := range []string{"assistant", "video"} {
		traces := byTenant[tenant]
		fmt.Printf("%s: %d traces, mean %.0f mc\n", tenant, len(traces), janus.MeanMillicores(traces))
	}
	// Output:
	// assistant: 50 traces, mean 6000 mc
	// video: 50 traces, mean 4500 mc
}

// ExampleExecutor_RunReplay serves a deterministic non-stationary arrival
// stream — a plateau, a burst, a diurnal cycle — under the elastic
// warm-pool autoscaler, on one virtual clock.
func ExampleExecutor_RunReplay() {
	sched, err := janus.NewReplaySchedule(7,
		janus.ReplayZipfMix("assistant"),
		janus.ReplayPlateau(10*time.Second, 2),
		janus.ReplayBurst(10*time.Second, 2, 8),
		janus.ReplayDiurnal(20*time.Second, 1, 4, 10*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	arrivals := janus.ReplayTenantArrivalTimes(sched.Arrivals())
	coloc, err := janus.NewColocationSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow: janus.IntelligentAssistant(), Functions: janus.Catalog(), Batch: 1,
		Arrivals: arrivals["assistant"], Colocation: coloc,
		Interference: janus.DefaultInterference(), StageCorrelation: 0.5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	scaler, err := janus.NewAutoscaler(janus.DefaultAutoscalerConfig())
	if err != nil {
		log.Fatal(err)
	}
	ex, err := janus.NewExecutor(janus.DefaultExecutorConfig(), janus.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	traces, metrics, err := ex.RunReplay(
		[]janus.TenantWorkload{{Requests: reqs,
			Allocator: &janus.FixedAllocator{System: "fixed", Sizes: []int{2000, 2000, 2000}}}},
		janus.ReplayConfig{Interval: 500 * time.Millisecond, Horizon: sched.Duration(), Controller: scaler},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d requests over %v with elastic pools (churn %d grown, %d shrunk)\n",
		len(traces[""]), sched.Duration(), metrics.PoolGrown, metrics.PoolShrunk)
	fmt.Printf("pod-seconds accounted: %t\n", metrics.PodSeconds > 0)
	// Output:
	// served 111 requests over 40s with elastic pools (churn 31 grown, 8 shrunk)
	// pod-seconds accounted: true
}

// ExampleNewOnlineRegen closes the bilateral loop on one virtual clock. A
// deployed bundle serves a plateau and then a burst on one 20-core node;
// when queueing pushes remaining budgets below the tables' coverage and
// the adapter's epoch miss rate over 1%, the hook re-synthesizes the
// bundle down to the observed budget floor and hot-swaps it. Every draw
// is seeded and the swap lands on the replay's clock, so the swaps and
// their floors are the same on every run.
func ExampleNewOnlineRegen() {
	w := janus.IntelligentAssistant()
	coloc, err := janus.NewColocationSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		log.Fatal(err)
	}
	dep, err := janus.Deploy(w, janus.DeployOptions{
		Functions:        janus.Catalog(),
		Colocation:       coloc,
		Interference:     janus.DefaultInterference(),
		Seed:             3,
		SamplesPerConfig: 400,
		BudgetStepMs:     25,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The developer's half: re-synthesize from the deployment's profiles
	// with the sweep extended down to the floor the adapter observed.
	regen, err := janus.NewOnlineRegen(janus.OnlineRegenConfig{
		Adapter: dep.Adapter,
		Synthesize: func(floorMs int) (*janus.Bundle, error) {
			s, err := janus.NewSynthesizer(janus.SynthesizerConfig{
				Profiles: dep.Profiles, BudgetStepMs: 25, BudgetFloorMs: floorMs,
			})
			if err != nil {
				return nil, err
			}
			res, err := s.GenerateBundle()
			if err != nil {
				return nil, err
			}
			return res.Bundle, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	sched, err := janus.NewReplaySchedule(3, janus.ReplayZipfMix("assistant"),
		janus.ReplayPlateau(10*time.Second, 2),
		janus.ReplayBurst(20*time.Second, 2, 20),
	)
	if err != nil {
		log.Fatal(err)
	}
	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow: w, Functions: janus.Catalog(), Batch: 1,
		Arrivals: janus.ReplayTenantArrivalTimes(sched.Arrivals())["assistant"], Colocation: coloc,
		Interference: janus.DefaultInterference(), StageCorrelation: 0.5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := janus.DefaultExecutorConfig()
	cfg.Cluster = janus.ClusterConfig{
		Nodes: 1, NodeMillicores: 20000, PoolSize: 3, IdleMillicores: 100,
		Placement: janus.PlacementSpread,
	}
	ex, err := janus.NewExecutor(cfg, janus.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	traces, _, err := ex.RunReplay(
		[]janus.TenantWorkload{{Requests: reqs, Allocator: dep.Allocator("janus")}},
		janus.ReplayConfig{Interval: 500 * time.Millisecond, Horizon: sched.Duration(), OnTick: regen.Tick},
	)
	if err != nil {
		log.Fatal(err)
	}
	swaps := regen.Swaps()
	fmt.Println("served:", len(traces[""]))
	fmt.Println("swaps:", len(swaps))
	fmt.Printf("first swap floor: %dms\n", swaps[0].FloorMs)
	// Output:
	// served: 174
	// swaps: 4
	// first swap floor: 1057ms
}
