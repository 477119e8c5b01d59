package core

import (
	"testing"
	"time"

	"janus/internal/adapter"
	"janus/internal/hints"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/workflow"
)

// staleCatalog returns function models whose base latencies are 50% lower
// than the live application's — the situation after an application update
// invalidates old profiles.
func staleCatalog() map[string]*perfmodel.Function {
	out := make(map[string]*perfmodel.Function)
	for name, fn := range perfmodel.Catalog() {
		out[name] = fn.Scaled(0.5)
	}
	return out
}

// TestFeedbackLoopRecoversFromStaleProfiles exercises the paper's §III-D
// supervision loop end to end: a deployment synthesized from stale (too
// optimistic) profiles serves the real, slower application; remaining
// budgets keep falling below the stale tables' coverage, the miss rate
// crosses the threshold, the supervisor triggers asynchronous
// regeneration with fresh profiles, and the replaced bundle stops missing.
func TestFeedbackLoopRecoversFromStaleProfiles(t *testing.T) {
	w := workflow.IntelligentAssistant()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}

	// Deploy with STALE profiles.
	d, err := Deploy(w, Options{
		Functions:        staleCatalog(),
		Colocation:       coloc,
		Interference:     interfere.Default(),
		Seed:             5,
		SamplesPerConfig: 1200,
		BudgetStepMs:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	oldBundle := d.Bundle()

	// Instrumented regeneration: re-profile the LIVE application.
	regenerated := make(chan struct{}, 1)
	reProfile := func(float64) {
		fresh, err := Deploy(w, Options{
			Functions:        perfmodel.Catalog(),
			Colocation:       coloc,
			Interference:     interfere.Default(),
			Seed:             6,
			SamplesPerConfig: 1200,
			BudgetStepMs:     10,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Adapter.Replace(fresh.Bundle()); err != nil {
			t.Error(err)
			return
		}
		select {
		case regenerated <- struct{}{}:
		default:
		}
	}
	a, err := adapter.New(oldBundle,
		adapter.WithMissThreshold(0.03),
		adapter.WithRegenerateCallback(reProfile))
	if err != nil {
		t.Fatal(err)
	}
	d.Adapter = a

	// The live workload: the real (slower) application.
	reqs, err := platform.GenerateWorkload(platform.WorkloadConfig{
		Workflow:          w,
		Functions:         perfmodel.Catalog(),
		N:                 200,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		StageCorrelation:  0.5,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := platform.NewExecutor(platform.DefaultExecutorConfig(), perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	staleTraces, err := ex.Run(reqs, d.Allocator("janus"))
	if err != nil {
		t.Fatal(err)
	}
	if rate := platform.MissRate(staleTraces); rate <= 0.03 {
		t.Fatalf("stale profiles produced no miss pressure: rate %.3f", rate)
	}
	select {
	case <-regenerated:
	case <-time.After(30 * time.Second):
		t.Fatal("supervisor never regenerated the bundle")
	}
	if d.Adapter.Bundle() == oldBundle {
		t.Fatal("bundle not replaced")
	}

	// The same workload under the regenerated bundle serves cleanly.
	freshTraces, err := ex.Run(reqs, d.Allocator("janus"))
	if err != nil {
		t.Fatal(err)
	}
	if rate := platform.MissRate(freshTraces); rate > 0.03 {
		t.Fatalf("post-regeneration miss rate %.3f still above threshold", rate)
	}
	if v := platform.SLOViolationRate(freshTraces); v > 0.03 {
		t.Fatalf("post-regeneration violation rate %.3f", v)
	}
}

// TestBundleValidatableAgainstWorkflow ensures a deployed bundle matches
// its workflow's shape (the check janusd relies on implicitly).
func TestBundleValidatableAgainstWorkflow(t *testing.T) {
	coloc, err := interfere.NewCountSampler([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(workflow.IntelligentAssistant(), Options{
		Functions:        perfmodel.Catalog(),
		Colocation:       coloc,
		Interference:     interfere.Default(),
		Seed:             9,
		SamplesPerConfig: 400,
		BudgetStepMs:     25,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := d.Bundle()
	if b.Stages() != d.Workflow.Len() {
		t.Fatalf("bundle covers %d stages for a %d-node chain", b.Stages(), d.Workflow.Len())
	}
	var _ *hints.Bundle = b // the deployment artifact is the wire type
}
