package core

import (
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/synth"
	"janus/internal/workflow"
)

func opts(t *testing.T) Options {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Functions:        perfmodel.Catalog(),
		Colocation:       coloc,
		Interference:     interfere.Default(),
		Seed:             31,
		SamplesPerConfig: 500,
		BudgetStepMs:     20,
	}
}

func TestDeployEndToEnd(t *testing.T) {
	d, err := Deploy(workflow.IntelligentAssistant(), opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Batch != 1 || d.Workflow.Name() != "ia" {
		t.Fatalf("deployment header: batch=%d wf=%s", d.Batch, d.Workflow.Name())
	}
	b := d.Bundle()
	if b.Stages() != 3 || b.TotalRanges() == 0 {
		t.Fatalf("bundle: stages=%d ranges=%d", b.Stages(), b.TotalRanges())
	}
	// The adapter serves decisions immediately.
	dec, err := d.Adapter.Decide(0, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Millicores < 1000 || dec.Millicores > 3000 {
		t.Fatalf("decision %+v outside grid", dec)
	}
	al := d.Allocator("janus")
	if al.Name() != "janus" {
		t.Fatal("allocator name")
	}
}

func TestDeployValidation(t *testing.T) {
	if _, err := Deploy(nil, opts(t)); err == nil {
		t.Error("nil workflow accepted")
	}
	bad := opts(t)
	bad.Functions = nil
	if _, err := Deploy(workflow.IntelligentAssistant(), bad); err == nil {
		t.Error("nil functions accepted")
	}
	if _, err := DeployProfiled(nil, opts(t)); err == nil {
		t.Error("nil profile set accepted")
	}
}

func TestDeployBatchMismatch(t *testing.T) {
	d, err := Deploy(workflow.IntelligentAssistant(), opts(t))
	if err != nil {
		t.Fatal(err)
	}
	o := opts(t)
	o.Batch = 2
	if _, err := DeployProfiled(d.Profiles, o); err == nil {
		t.Error("batch mismatch accepted")
	}
}

func TestDeployModes(t *testing.T) {
	for _, mode := range []synth.Mode{synth.ModeJanus, synth.ModeJanusMinus} {
		o := opts(t)
		o.Mode = mode
		d, err := Deploy(workflow.VideoAnalyze(), o)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if d.Bundle().TotalRanges() == 0 {
			t.Fatalf("mode %v: empty bundle", mode)
		}
	}
}

// TestRegenerationSwapsBundle pins that a caller shipping the deployment's
// bundle ships the one the adapter serves, not the deploy-time synthesis,
// once a regenerated bundle is swapped in.
func TestRegenerationSwapsBundle(t *testing.T) {
	d, err := Deploy(workflow.IntelligentAssistant(), opts(t))
	if err != nil {
		t.Fatal(err)
	}
	before := d.Bundle()
	o := opts(t)
	o.Weight = 3
	regen, err := DeployProfiled(d.Profiles, o)
	if err != nil {
		t.Fatal(err)
	}
	now := regen.Bundle()
	if err := d.Adapter.Replace(now); err != nil {
		t.Fatal(err)
	}
	if got := d.Bundle(); got != now || got == before {
		t.Fatalf("Bundle() = %p after the swap, adapter serves %p (deploy-time %p)", got, now, before)
	}
}

func TestDeployProfiledReuse(t *testing.T) {
	d, err := Deploy(workflow.IntelligentAssistant(), opts(t))
	if err != nil {
		t.Fatal(err)
	}
	// Re-synthesize with a different weight over the same profiles.
	o := opts(t)
	o.Weight = 3
	d3, err := DeployProfiled(d.Profiles, o)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Bundle().Weight != 3 {
		t.Fatalf("weight = %v", d3.Bundle().Weight)
	}
	// Higher weight condenses to fewer or equal hints (Fig 8 trend).
	if d3.Bundle().TotalRanges() > d.Bundle().TotalRanges() {
		t.Fatalf("weight 3 bundle larger than weight 1: %d vs %d",
			d3.Bundle().TotalRanges(), d.Bundle().TotalRanges())
	}
}
