package experiment

import (
	"testing"
)

func TestDAGWorkflowShape(t *testing.T) {
	w, err := DAGWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 6 {
		t.Fatalf("%d nodes, want 6", w.Len())
	}
	// The cross edge (detect -> ocr -> fuse next to detect -> fuse) breaks
	// both special cases: this workflow exists only for the node engine.
	if w.IsChain() || w.IsSeriesParallel() {
		t.Fatal("ml-dag misclassified as chain or series-parallel")
	}
	groups := w.DecisionGroups()
	if len(groups) != 5 {
		t.Fatalf("%d decision groups, want 5", len(groups))
	}
	if len(groups[1].Nodes) != 2 {
		t.Fatalf("fork group has %d members: %+v", len(groups[1].Nodes), groups[1])
	}
	// fuse joins three predecessors from two different groups.
	var fusePreds int
	for _, g := range groups {
		if g.Nodes[0].Name == "fuse" {
			fusePreds = len(g.Preds)
		}
	}
	if fusePreds != 3 {
		t.Fatalf("fuse has %d predecessors, want 3", fusePreds)
	}
}

// TestDAGScenarioServesEverySystem is the scenario's acceptance test: a
// genuinely non-series-parallel DAG profiles, synthesizes, and serves
// under every applicable system, with the paper's ordering (late binding
// cheaper than early binding, never below the clairvoyant floor) holding
// on the new topology.
func TestDAGScenarioServesEverySystem(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.DAGScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DAGSystems()) {
		t.Fatalf("%d rows, want %d", len(rows), len(DAGSystems()))
	}
	byName := map[string]DAGRow{}
	for _, r := range rows {
		byName[r.System] = r
		if r.P99 <= 0 {
			t.Errorf("%s: non-positive P99", r.System)
		}
		// Six pods at the 1000 mc floor.
		if r.MeanMillicores < 6000 {
			t.Errorf("%s: mean millicores %.0f below the 6-pod floor", r.System, r.MeanMillicores)
		}
		// One decision per decision group: 5, not 6 (detect/classify share)
		// and not 4 (ocr and fuse decide at their own readiness instants).
		if r.Decisions != 5 {
			t.Errorf("%s: %.2f decisions per request, want 5", r.System, r.Decisions)
		}
		// The objective is P99; tolerate small-sample noise as the chain
		// suites do.
		if r.ViolationRate > 0.02 {
			t.Errorf("%s: violation rate %.3f", r.System, r.ViolationRate)
		}
	}
	if byName[SysJanus].MeanMillicores >= byName[SysGrandSLAM].MeanMillicores {
		t.Errorf("janus %.0f mc not below grandslam %.0f mc",
			byName[SysJanus].MeanMillicores, byName[SysGrandSLAM].MeanMillicores)
	}
	if byName[SysJanus].MeanMillicores < byName[SysOptimal].MeanMillicores {
		t.Errorf("janus %.0f mc below the clairvoyant floor %.0f mc",
			byName[SysJanus].MeanMillicores, byName[SysOptimal].MeanMillicores)
	}
	if FormatDAGScenario(rows) == "" {
		t.Fatal("empty scenario rendering")
	}
}

// TestDAGDeterministicAcrossParallelism extends RunPoints' byte-identity
// requirement to the arbitrary-DAG grid: readiness scheduling, the shared
// fork decision, the cross path, and the in-degree-3 join must replay
// identically at parallelism 1 and 8.
func TestDAGDeterministicAcrossParallelism(t *testing.T) {
	w, err := DAGWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	var points []Point
	for _, sys := range DAGSystems() {
		points = append(points, Point{Workflow: w, Batch: 1, System: sys})
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
	if seq, par := dumpRuns(points, seqRuns), dumpRuns(points, parRuns); seq != par {
		t.Fatal("DAG grid diverged across parallelism")
	}
}
