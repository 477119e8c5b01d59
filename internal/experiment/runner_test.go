package experiment

import (
	"fmt"
	"strings"
	"testing"

	"janus/internal/workflow"
)

// dumpRuns serializes every field the drivers consume — summaries plus the
// full per-stage traces — so two runs compare byte for byte. runs[i] is
// the result of points[i], whose workflow names its stages.
func dumpRuns(points []Point, runs []*SystemRun) string {
	var b strings.Builder
	for i, r := range runs {
		fmt.Fprintf(&b, "%s slo=%v mc=%.9f p50=%v p99=%v viol=%.9f miss=%.9f\n",
			r.System, r.SLO, r.MeanMillicores, r.P50E2E, r.P99E2E, r.ViolationRate, r.MissRate)
		for _, tr := range r.Traces {
			fmt.Fprintf(&b, "  req=%d arr=%v done=%v e2e=%v mc=%d dec=%d miss=%d parked=%d\n",
				tr.RequestID, tr.Arrival, tr.Done, tr.E2E, tr.TotalMillicores, tr.Decisions, tr.Misses, tr.Parked)
			for _, st := range tr.Stages {
				fmt.Fprintf(&b, "    s%d.b%d %s mc=%d start=%v end=%v startup=%v lat=%v cold=%t hit=%t\n",
					st.Stage, st.Branch, stageNode(points[i].Workflow, &st).Function, st.Millicores, st.Start, st.End, st.Startup, st.Latency, st.Cold, st.Hit)
			}
		}
	}
	return b.String()
}

// TestRunnerDeterministicAcrossParallelism is RunPoints' acceptance
// test: a fresh QuickSuite serving the same points at parallelism 1 and at
// parallelism 8 must produce byte-identical results — the pre-sampled
// request randomness makes every point independent, so concurrency can
// only reorder work, never change it. The grid covers every chain system
// on IA plus the full series-parallel scenario (fork-join serving and the
// arrival-rate sweep), so SP branch fan-out, joins, and capacity parking
// are all under the byte-identity requirement.
func TestRunnerDeterministicAcrossParallelism(t *testing.T) {
	var points []Point
	for _, sys := range AllSystems() {
		points = append(points, Point{Workflow: workflow.IntelligentAssistant(), Batch: 1, System: sys})
	}
	sp := SPWorkflow()
	for _, sys := range SPSystems() {
		points = append(points, Point{Workflow: sp, Batch: 1, System: sys})
	}
	for _, rate := range SPArrivalRates() {
		for _, sys := range spSweepSystems() {
			points = append(points, Point{Workflow: sp, Batch: 1, System: sys, ArrivalRatePerSec: rate})
		}
	}
	sequential := QuickSuite()
	sequential.SetParallelism(1)
	seqRuns, err := sequential.RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	concurrent := QuickSuite()
	concurrent.SetParallelism(8)
	parRuns, err := concurrent.RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	seq, par := dumpRuns(points, seqRuns), dumpRuns(points, parRuns)
	if seq != par {
		// Find the first divergent line for a readable failure.
		a, b := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("parallel run diverged at line %d:\n  seq: %s\n  par: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("parallel run diverged (lengths %d vs %d)", len(seq), len(par))
	}
}

func TestRunnerResultsInInputOrder(t *testing.T) {
	s := quickSuite(t)
	s.SetParallelism(3)
	t.Cleanup(func() { s.SetParallelism(0) })
	points := []Point{
		{Workflow: workflow.IntelligentAssistant(), Batch: 1, System: SysGrandSLAM},
		{Workflow: workflow.IntelligentAssistant(), Batch: 1, System: SysOptimal},
		{Workflow: workflow.IntelligentAssistant(), Batch: 1, System: SysJanus},
	}
	runs, err := s.RunPoints(points)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run.System != points[i].System {
			t.Fatalf("result %d is %s, want %s", i, run.System, points[i].System)
		}
	}
}

func TestRunnerUnknownSystemFails(t *testing.T) {
	s := quickSuite(t)
	_, err := s.RunPoints([]Point{
		{Workflow: workflow.IntelligentAssistant(), Batch: 1, System: "no-such-system"},
	})
	if err == nil || !strings.Contains(err.Error(), "no-such-system") {
		t.Fatalf("err = %v, want unknown-system failure", err)
	}
}

func TestRunnerValidation(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.RunPoints([]Point{{Batch: 1, System: SysJanus}}); err == nil {
		t.Error("nil workflow accepted")
	}
	if _, err := s.RunPoints([]Point{{Workflow: workflow.IntelligentAssistant(), System: SysJanus}}); err == nil {
		t.Error("batch 0 accepted")
	}
	runs, err := s.RunPoints(nil)
	if err != nil || runs != nil {
		t.Errorf("empty point set: (%v, %v)", runs, err)
	}
}

func TestEvaluationPointsCoverTheGrid(t *testing.T) {
	points, err := EvaluationPoints()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(panels()) * len(AllSystems()); len(points) != want {
		t.Fatalf("%d points, want %d", len(points), want)
	}
	seen := make(map[string]bool)
	for _, p := range points {
		if seen[p.String()] {
			t.Fatalf("duplicate point %s", p)
		}
		seen[p.String()] = true
	}
}
