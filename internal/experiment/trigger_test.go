package experiment

import (
	"strings"
	"testing"
	"time"

	"janus/internal/platform"
)

func TestTriggerWorkflowShape(t *testing.T) {
	w, err := TriggerWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsDynamic() {
		t.Fatal("trigger workflow is not dynamic")
	}
	if got := len(w.DecisionGroups()); got != 6 {
		t.Fatalf("trigger workflow has %d decision groups, want 6", got)
	}
	d, ok := w.Dynamic("ocr")
	if !ok || d.Map == nil || d.Map.MaxWidth != 6 {
		t.Fatalf("ocr dynamic spec = %+v", d)
	}
	if g, ok := w.Dynamic("gate"); !ok || !g.Await {
		t.Fatal("gate is not awaited")
	}
}

func TestTriggerSchedule(t *testing.T) {
	w, err := TriggerWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*platform.Request, 16)
	for i := range reqs {
		reqs[i] = &platform.Request{ID: i, Workflow: w, Arrival: time.Duration(i) * time.Second}
	}
	trs := TriggerSchedule(reqs)
	// One gate resume per request plus one start trigger per
	// timer-started request.
	if want := len(reqs) + len(reqs)/triggerTimerEvery; len(trs) != want {
		t.Fatalf("schedule has %d triggers, want %d", len(trs), want)
	}
	starts := 0
	for _, tr := range trs {
		if tr.Tenant != TriggerTenant {
			t.Fatalf("trigger addressed to %q", tr.Tenant)
		}
		r := reqs[tr.Request]
		start := r.Arrival
		if tr.Request%triggerTimerEvery == triggerTimerEvery-1 {
			start += TriggerTimerDelay
		}
		switch tr.Step {
		case "":
			starts++
			if tr.At != start {
				t.Fatalf("request %d starts at %v, want %v", tr.Request, tr.At, start)
			}
		case "gate":
			// Gate timers chain off the effective admission instant, so
			// timer-started requests keep the full gate delay.
			if tr.At != start+TriggerGateDelay {
				t.Fatalf("request %d gate fires at %v, want %v", tr.Request, tr.At, start+TriggerGateDelay)
			}
		default:
			t.Fatalf("trigger resumes unexpected step %q", tr.Step)
		}
	}
	if starts != len(reqs)/triggerTimerEvery {
		t.Fatalf("%d start triggers, want %d", starts, len(reqs)/triggerTimerEvery)
	}
}

// TestTriggerScenario is the scenario's headline claim: with the identical
// shape-variant bundle, identical request stream, and identical trigger
// queue, showing the allocator the already-resolved shape beats static
// worst-case planning on SLO attainment at equal or lower provisioning
// cost.
func TestTriggerScenario(t *testing.T) {
	s := QuickSuite()
	runs, err := s.TriggerScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Config != TriggerWorstCase || runs[1].Config != TriggerShapeAware {
		t.Fatalf("runs = %v", runs)
	}
	worst, aware := runs[0], runs[1]
	for _, run := range runs {
		if run.Aggregate.Requests != s.cfg.Requests {
			t.Fatalf("%s served %d requests, want %d", run.Config, run.Aggregate.Requests, s.cfg.Requests)
		}
		if run.TimerStarted != s.cfg.Requests/triggerTimerEvery {
			t.Fatalf("%s reports %d timer-started requests", run.Config, run.TimerStarted)
		}
		segs := 0
		for _, row := range run.Rows {
			segs += row.Requests
		}
		if segs != run.Aggregate.Requests {
			t.Fatalf("%s shape segments sum to %d of %d requests", run.Config, segs, run.Aggregate.Requests)
		}
	}
	if aware.Aggregate.SLOAttainment <= worst.Aggregate.SLOAttainment {
		t.Errorf("shape-aware attainment %.4f does not beat worst-case %.4f",
			aware.Aggregate.SLOAttainment, worst.Aggregate.SLOAttainment)
	}
	if aware.Metrics.PodSeconds > worst.Metrics.PodSeconds {
		t.Errorf("shape-aware pod-seconds %.1f exceed worst-case %.1f",
			aware.Metrics.PodSeconds, worst.Metrics.PodSeconds)
	}
	if aware.Aggregate.MeanMillicores > worst.Aggregate.MeanMillicores {
		t.Errorf("shape-aware mean millicores %.1f exceed worst-case %.1f",
			aware.Aggregate.MeanMillicores, worst.Aggregate.MeanMillicores)
	}
	out := FormatTrigger(runs)
	for _, want := range []string{"Trigger:", TriggerWorstCase, TriggerShapeAware, "heavy w=", "pod-seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTrigger output missing %q:\n%s", want, out)
		}
	}
}

// TestTriggerDeterministicAcrossParallelism pins the dynamic scenario's
// determinism: conditional branches, data-dependent map widths, retries,
// and externally triggered resumptions replay byte for byte regardless of
// how many suite workers race on the shared caches.
func TestTriggerDeterministicAcrossParallelism(t *testing.T) {
	render := func(par int) string {
		s := QuickSuite()
		s.SetParallelism(par)
		runs, err := s.TriggerScenario()
		if err != nil {
			t.Fatal(err)
		}
		return FormatTrigger(runs)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("trigger scenario diverges across parallelism:\n--- parallelism 1 ---\n%s\n--- parallelism 8 ---\n%s", seq, par)
	}
}
