package synth_test

import (
	"fmt"
	"testing"

	"janus/internal/experiment"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/profile"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// TestKernelMatchesReference requires the budget-sweep kernel to produce
// the same raw tables as the map-based reference on the catalog
// workflows the experiments and the benchmark synthesize: the ia and va
// chains, the six-node dag and the dynamic trigger-ml workflow with its
// shape variants, under Janus, Janus- and Janus+, several head weights, a
// budget override and a budget floor.
func TestKernelMatchesReference(t *testing.T) {
	dag, err := experiment.DAGWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	trig, err := experiment.TriggerWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p.SamplesPerConfig = 300
	configs := []synth.Config{
		{Mode: synth.ModeJanus, Weight: 1, BudgetStepMs: 1},
		{Mode: synth.ModeJanus, Weight: 0.5, BudgetStepMs: 3, BudgetFloorMs: 40},
		{Mode: synth.ModeJanus, Weight: 2.5, BudgetStepMs: 7, BudgetOverrideMs: [2]int{300, 2500}},
		{Mode: synth.ModeJanusMinus, Weight: 1, BudgetStepMs: 2},
		{Mode: synth.ModeJanusMinus, Weight: 3, BudgetStepMs: 5, BudgetFloorMs: 1},
		{Mode: synth.ModeJanusPlus, Weight: 1, BudgetStepMs: 97},
		{Mode: synth.ModeJanusPlus, Weight: 1.5, BudgetStepMs: 163, BudgetFloorMs: 90},
	}
	for _, w := range []*workflow.Workflow{workflow.IntelligentAssistant(), workflow.VideoAnalyze(), dag, trig} {
		set, err := p.ProfileWorkflow(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w == trig && len(set.Shaped) == 0 {
			t.Fatal("trigger-ml profiled without shape variants")
		}
		for _, cfg := range configs {
			cfg.Profiles = set
			t.Run(fmt.Sprintf("%s/%v/w=%v/step=%d/floor=%d", w.Name(), cfg.Mode, cfg.Weight, cfg.BudgetStepMs, cfg.BudgetFloorMs), func(t *testing.T) {
				s, err := synth.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				synth.SetWorkers(s, 2)
				if err := synth.CheckReference(s); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
