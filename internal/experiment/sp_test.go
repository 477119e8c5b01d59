package experiment

import (
	"testing"
	"time"

	"janus/internal/core"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/synth"
	"janus/internal/workflow"
)

func TestSPScenarioServesEverySystem(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.SPScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SPSystems()) {
		t.Fatalf("%d rows, want %d", len(rows), len(SPSystems()))
	}
	byName := map[string]SPRow{}
	for _, r := range rows {
		byName[r.System] = r
		if r.P99 <= 0 {
			t.Errorf("%s: non-positive P99", r.System)
		}
		// Two stages, three branch pods, 1000mc floor per pod.
		if r.MeanMillicores < 3000 {
			t.Errorf("%s: mean millicores %.0f below the 3-pod floor", r.System, r.MeanMillicores)
		}
	}
	// Late binding beats the identical-size early binder on the fork-join
	// workload, and never undercuts the clairvoyant floor.
	if byName[SysJanus].MeanMillicores >= byName[SysGrandSLAM].MeanMillicores {
		t.Errorf("janus %.0f mc not below grandslam %.0f mc",
			byName[SysJanus].MeanMillicores, byName[SysGrandSLAM].MeanMillicores)
	}
	if byName[SysJanus].MeanMillicores < byName[SysOptimal].MeanMillicores {
		t.Errorf("janus %.0f mc below the clairvoyant floor %.0f mc",
			byName[SysJanus].MeanMillicores, byName[SysOptimal].MeanMillicores)
	}
}

func TestSPArrivalSweepMonotonePressure(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.SPArrivalSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SPArrivalRates())*len(spSweepSystems()) {
		t.Fatalf("%d rows", len(rows))
	}
	// Consumption is rate-independent by construction (identical draws,
	// identical decisions per request for early binders); confirm for the
	// fixed-size system as a determinism cross-check on the sweep plumbing.
	gsp := map[float64]float64{}
	for _, r := range rows {
		if r.System == SysGrandSLAMP {
			gsp[r.RatePerSec] = r.MeanMillicores
		}
	}
	if len(gsp) != len(SPArrivalRates()) {
		t.Fatalf("grandslam+ missing rates: %v", gsp)
	}
}

// TestSeriesParallelEndToEnd deploys a diamond fork-join DAG under Janus
// and serves it on the default cluster substrate: the SLO must hold and
// runtime adaptation must beat early binding — the cheapest fixed plan
// whose per-group P99 latencies fit the SLO, branches billed per pod.
func TestSeriesParallelEndToEnd(t *testing.T) {
	w, err := workflow.NewSeriesParallel("diamond", 3500*time.Millisecond, [][]string{{"od"}, {"qa", "ts"}, {"ico"}})
	if err != nil {
		t.Fatal(err)
	}
	coloc, err := interfere.NewCountSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.Deploy(w, core.Options{
		Functions:        perfmodel.Catalog(),
		Colocation:       coloc,
		Interference:     interfere.Default(),
		Seed:             3,
		SamplesPerConfig: 1000,
		Mode:             synth.ModeJanus,
		BudgetStepMs:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := platform.GenerateWorkload(platform.WorkloadConfig{
		Workflow:          w,
		Functions:         perfmodel.Catalog(),
		N:                 400,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		Seed:              9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := platform.NewExecutor(platform.DefaultExecutorConfig(), perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	traces, err := ex.Run(reqs, dep.Allocator(SysJanus))
	if err != nil {
		t.Fatal(err)
	}
	if got := platform.SLOViolationRate(traces); got > 0.02 {
		t.Fatalf("violation rate %.3f", got)
	}
	janusMC := platform.MeanMillicores(traces)

	set := dep.Profiles
	sloMs := int(w.SLO() / time.Millisecond)
	bestFixed := -1
	levels := set.At(0).Grid.Levels()
	for _, k0 := range levels {
		for _, k1 := range levels {
			for _, k2 := range levels {
				total := set.At(0).LMs(99, k0) + set.At(1).LMs(99, k1) + set.At(2).LMs(99, k2)
				if total > sloMs {
					continue
				}
				if cores := k0 + 2*k1 + k2; bestFixed < 0 || cores < bestFixed {
					bestFixed = cores
				}
			}
		}
	}
	if bestFixed < 0 {
		t.Fatal("no feasible early-binding plan; calibration broke")
	}
	if janusMC >= float64(bestFixed) {
		t.Fatalf("janus (%.0f mc) not below early binding (%d mc) on the diamond", janusMC, bestFixed)
	}
	// Misses stay within the supervisor's comfort zone.
	if rate := platform.MissRate(traces); rate > 0.03 {
		t.Fatalf("miss rate %.3f", rate)
	}
}
