package experiment

import (
	"fmt"
	"sync"
	"testing"

	"janus/internal/hints"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// The quick suite is shared across the package's tests: profiles and
// deployments dominate setup cost.
var (
	quickOnce sync.Once
	quick     *Suite
)

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	quickOnce.Do(func() { quick = QuickSuite() })
	return quick
}

func TestRunPointProducesAllSystems(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.RunPoint(workflow.IntelligentAssistant(), 1, AllSystems())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 7 {
		t.Fatalf("%d systems", len(runs))
	}
	for name, run := range runs {
		if len(run.Traces) != s.cfg.Requests {
			t.Errorf("%s: %d traces", name, len(run.Traces))
		}
		if run.MeanMillicores < 3000 || run.MeanMillicores > 9000 {
			t.Errorf("%s: mean millicores %.0f outside [3000, 9000]", name, run.MeanMillicores)
		}
	}
}

// TestSystemOrderingMatchesPaper locks the paper's headline result (Table
// I, Fig 5a): Optimal <= Janus+ ~ Janus < Janus- < ORION < GrandSLAM+ <=
// GrandSLAM on resource consumption, with all systems meeting the SLO at
// P99-ish rates.
func TestSystemOrderingMatchesPaper(t *testing.T) {
	s := quickSuite(t)
	for _, wf := range []*workflow.Workflow{workflow.IntelligentAssistant(), workflow.VideoAnalyze()} {
		runs, err := s.RunPoint(wf, 1, AllSystems())
		if err != nil {
			t.Fatal(err)
		}
		mc := func(sys string) float64 { return runs[sys].MeanMillicores }
		if mc(SysOptimal) > mc(SysJanus) {
			t.Errorf("%s: optimal (%.0f) above janus (%.0f)", wf.Name(), mc(SysOptimal), mc(SysJanus))
		}
		if mc(SysJanus) >= mc(SysJanusMinus) {
			t.Errorf("%s: janus (%.0f) not below janus- (%.0f)", wf.Name(), mc(SysJanus), mc(SysJanusMinus))
		}
		if mc(SysJanusMinus) >= mc(SysORION) {
			t.Errorf("%s: janus- (%.0f) not below orion (%.0f)", wf.Name(), mc(SysJanusMinus), mc(SysORION))
		}
		if mc(SysORION) >= mc(SysGrandSLAMP) {
			t.Errorf("%s: orion (%.0f) not below grandslam+ (%.0f)", wf.Name(), mc(SysORION), mc(SysGrandSLAMP))
		}
		if mc(SysGrandSLAMP) > mc(SysGrandSLAM) {
			t.Errorf("%s: grandslam+ (%.0f) above grandslam (%.0f)", wf.Name(), mc(SysGrandSLAMP), mc(SysGrandSLAM))
		}
		// Janus+ tracks Janus (the paper reports within ~0.6%; our latency
		// models make the second-stage exploration somewhat more valuable,
		// so allow a wider band on the cheap side).
		if diff := mc(SysJanusPlus)/mc(SysJanus) - 1; diff > 0.03 || diff < -0.16 {
			t.Errorf("%s: janus+ deviates %.1f%% from janus", wf.Name(), diff*100)
		}
		// SLO compliance: the objective is P99, so tolerate ~2% violations
		// in the quick suite's small sample.
		for sys, run := range runs {
			if run.ViolationRate > 0.02 {
				t.Errorf("%s/%s: violation rate %.3f", wf.Name(), sys, run.ViolationRate)
			}
		}
		// Janus's hints tables must not be missing all the time.
		if runs[SysJanus].MissRate > 0.05 {
			t.Errorf("%s: janus miss rate %.3f", wf.Name(), runs[SysJanus].MissRate)
		}
	}
}

// TestSuiteMemo pins the suite's memo contract the figure drivers rely
// on: a repeated request returns the identical artifact, and distinct
// arguments never share one. Weights that agree to two decimals are
// distinct deployments.
func TestSuiteMemo(t *testing.T) {
	s := quickSuite(t)
	ia := workflow.IntelligentAssistant()

	p1, err := s.Profiles(ia, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Profiles(ia, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("repeated Profiles returned a different profile set")
	}

	d1, err := s.Deployment(ia, 1, synth.ModeJanus, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Deployment(ia, 1, synth.ModeJanus, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("repeated Deployment returned a different deployment")
	}
	for _, w := range []float64{1.001, 1.004} {
		d, err := s.Deployment(ia, 1, synth.ModeJanus, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Bundle().Weight; got != w {
			t.Errorf("Deployment at weight %v returned a bundle synthesized at weight %v", w, got)
		}
	}

	// One re-synthesized bundle per (workflow, floor): the regeneration
	// loop shares it across cells and configurations.
	va := workflow.VideoAnalyze()
	bundles := map[string]*hints.Bundle{}
	for _, w := range []*workflow.Workflow{ia, va} {
		for _, floor := range []int{300, 400} {
			b1, err := s.resynthesize(w, floor)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := s.resynthesize(w, floor)
			if err != nil {
				t.Fatal(err)
			}
			if b1 != b2 {
				t.Errorf("repeated resynthesize(%s, %d) returned a different bundle", w.Name(), floor)
			}
			for key, b := range bundles {
				if b == b1 {
					t.Errorf("resynthesize(%s, %d) returned the bundle of %s", w.Name(), floor, key)
				}
			}
			bundles[fmt.Sprintf("%s/%d", w.Name(), floor)] = b1
		}
	}

	w1, err := s.WorkloadAtRate(ia, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := s.WorkloadAtRate(ia, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if &w1[0] != &w2[0] {
		t.Error("repeated WorkloadAtRate returned a different request slice")
	}

	r1, err := s.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("repeated ReplayScenario returned a different %s run", r1[i].Config)
		}
	}
}
