package profile_test

import (
	"fmt"
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

// TestProfilePassMatchesReference profiles the ia chain at batches 1-3,
// the va chain, the va-sp fork-join, the cross-edge DAG and the dynamic
// trigger-ml workflow through the one group pass and through the
// reference loops it replaced, on one worker and on eight: profiles, raw
// samples and shape variants must be deeply equal.
func TestProfilePassMatchesReference(t *testing.T) {
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
	ia := workflow.IntelligentAssistant()
	for _, tc := range []struct {
		w     *workflow.Workflow
		batch int
	}{
		{ia, 1}, {ia, 2}, {ia, 3},
		{workflow.VideoAnalyze(), 1}, {workflow.VideoAnalyzeSP(), 1}, {dag, 1}, {trig, 1},
	} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/b%d/workers=%d", tc.w.Name(), tc.batch, workers), func(t *testing.T) {
				p, err := profile.NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 5)
				if err != nil {
					t.Fatal(err)
				}
				p.SamplesPerConfig = 300
				profile.SetWorkers(p, workers)
				got, err := p.ProfileWorkflow(tc.w, tc.batch)
				if err != nil {
					t.Fatal(err)
				}
				want, err := profile.RefProfileWorkflow(p, tc.w, tc.batch)
				if err != nil {
					t.Fatal(err)
				}
				if tc.w.IsChain() && got.At(0).Sample(1000) == nil {
					t.Fatal("chain profiled without raw samples")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("profile set differs from the reference loops'")
				}
			})
		}
	}
}
