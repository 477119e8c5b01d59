package janus_test

import (
	"testing"
	"time"

	"janus"
)

// TestFacadeEndToEnd exercises the public API surface the way README's
// quickstart does: define, deploy, serve, compare.
func TestFacadeEndToEnd(t *testing.T) {
	w, err := janus.NewChain("demo", 3*time.Second, "od", "qa", "ts")
	if err != nil {
		t.Fatal(err)
	}
	coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	if dep.Bundle().Stages() != 3 {
		t.Fatalf("bundle stages = %d", dep.Bundle().Stages())
	}
	reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
		Workflow:          w,
		Functions:         janus.Catalog(),
		N:                 50,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      janus.DefaultInterference(),
		StageCorrelation:  0.5,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := janus.NewExecutor(janus.DefaultExecutorConfig(), janus.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	janusTraces, err := ex.Run(reqs, dep.Allocator("janus"))
	if err != nil {
		t.Fatal(err)
	}
	early, err := janus.GrandSLAMPlus(dep.Profiles, w.SLO())
	if err != nil {
		t.Fatal(err)
	}
	earlyTraces, err := ex.Run(reqs, early)
	if err != nil {
		t.Fatal(err)
	}
	if jm, em := janus.MeanMillicores(janusTraces), janus.MeanMillicores(earlyTraces); jm >= em {
		t.Fatalf("janus (%.0f) not below early binding (%.0f)", jm, em)
	}
	if v := janus.SLOViolationRate(janusTraces); v > 0.05 {
		t.Fatalf("janus violation rate %.3f", v)
	}
}

// TestFacadeBundleRoundTrip checks the serialization surface.
func TestFacadeBundleRoundTrip(t *testing.T) {
	coloc, err := janus.NewColocationSampler([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := janus.Deploy(janus.VideoAnalyze(), janus.DeployOptions{
		Functions:        janus.Catalog(),
		Colocation:       coloc,
		Interference:     janus.DefaultInterference(),
		Seed:             4,
		SamplesPerConfig: 400,
		BudgetStepMs:     25,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := dep.Bundle().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := janus.ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := janus.NewAdapter(back)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decide(0, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeFleetSurface pins the fleet-scale exports: the fleet
// cluster's dimensions.
func TestFacadeFleetSurface(t *testing.T) {
	if janus.FleetNodes < 100 {
		t.Fatalf("FleetNodes = %d; the fleet scenario promises hundreds of nodes", janus.FleetNodes)
	}
	if janus.FleetNodeMillicores <= 0 {
		t.Fatalf("FleetNodeMillicores = %d", janus.FleetNodeMillicores)
	}
}
