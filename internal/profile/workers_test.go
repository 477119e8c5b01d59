package profile_test

import (
	"reflect"
	"testing"

	"janus/internal/experiment"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/profile"
	"janus/internal/workflow"
)

// TestProfileWorkflowIndependentOfWorkers profiles the ia chain, the va
// fork-join, the cross-edge DAG and the dynamic trigger-ml workflow with
// the grid levels on one worker and spread over eight: the sets, raw
// samples and shape variants included, must be deeply equal.
func TestProfileWorkflowIndependentOfWorkers(t *testing.T) {
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
	for _, w := range []*workflow.Workflow{workflow.IntelligentAssistant(), workflow.VideoAnalyze(), dag, trig} {
		t.Run(w.Name(), func(t *testing.T) {
			var sets []*profile.Set
			for _, workers := range []int{1, 8} {
				p, err := profile.NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 5)
				if err != nil {
					t.Fatal(err)
				}
				p.SamplesPerConfig = 300
				profile.SetWorkers(p, workers)
				set, err := p.ProfileWorkflow(w, 1)
				if err != nil {
					t.Fatal(err)
				}
				sets = append(sets, set)
			}
			if w.IsDynamic() && len(sets[0].Shaped) == 0 {
				t.Fatal("dynamic workflow profiled without shape variants")
			}
			if !reflect.DeepEqual(sets[0], sets[1]) {
				t.Fatal("profile set on eight workers differs from the set on one")
			}
		})
	}
}
