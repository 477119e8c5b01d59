package workflow

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func mustChain(t *testing.T) *Workflow {
	t.Helper()
	w, err := NewChain("c", time.Second, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	nodes := []Node{{Name: "a", Function: "fa"}, {Name: "b", Function: "fb"}}
	cases := []struct {
		name   string
		wfName string
		slo    time.Duration
		nodes  []Node
		edges  [][2]string
		errHas string
	}{
		{"empty name", "", time.Second, nodes, nil, "name"},
		{"zero slo", "w", 0, nodes, nil, "SLO"},
		{"no nodes", "w", time.Second, nil, nil, "at least one"},
		{"unnamed node", "w", time.Second, []Node{{Function: "f"}}, nil, "no name"},
		{"missing function", "w", time.Second, []Node{{Name: "x"}}, nil, "no function"},
		{"duplicate name", "w", time.Second, []Node{{Name: "a", Function: "f"}, {Name: "a", Function: "g"}}, nil, "duplicate"},
		{"edge from unknown", "w", time.Second, nodes, [][2]string{{"zz", "b"}}, "unknown"},
		{"edge to unknown", "w", time.Second, nodes, [][2]string{{"a", "zz"}}, "unknown"},
		{"self edge", "w", time.Second, nodes, [][2]string{{"a", "a"}}, "self edge"},
		{"cycle", "w", time.Second, nodes, [][2]string{{"a", "b"}, {"b", "a"}}, "cycle"},
	}
	for _, c := range cases {
		_, err := New(c.wfName, c.slo, c.nodes, c.edges)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.errHas)
		}
	}
}

func TestChainShape(t *testing.T) {
	w := mustChain(t)
	if !w.IsChain() {
		t.Fatal("chain not recognized")
	}
	groups := w.DecisionGroups()
	if len(groups) != 3 || groups[0].Nodes[0].Name != "a" || groups[2].Nodes[0].Name != "c" {
		t.Fatalf("chain groups = %+v", groups)
	}
}

func TestNonChainShapes(t *testing.T) {
	nodes := []Node{{Name: "a", Function: "f"}, {Name: "b", Function: "f"}, {Name: "c", Function: "f"}}
	fanOut, err := New("fan", time.Second, nodes, [][2]string{{"a", "b"}, {"a", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if fanOut.IsChain() {
		t.Fatal("fan-out recognized as chain")
	}
	// A fan-out is series-parallel, but its second group has two nodes.
	if groups := fanOut.DecisionGroups(); !fanOut.IsSeriesParallel() || len(groups) != 2 || len(groups[1].Nodes) != 2 {
		t.Fatalf("fan-out groups = %+v", groups)
	}
	// Two parallel two-node chains: connected per node, but two starts.
	four := append(append([]Node(nil), nodes[:2]...), Node{Name: "x", Function: "f"}, Node{Name: "y", Function: "f"})
	two, err := New("two", time.Second, four, [][2]string{{"a", "b"}, {"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if two.IsChain() {
		t.Fatal("multi-start graph recognized as chain")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	nodes := []Node{{Name: "d", Function: "f"}, {Name: "b", Function: "f"}, {Name: "a", Function: "f"}, {Name: "c", Function: "f"}}
	w, err := New("dag", time.Second, nodes, [][2]string{{"a", "b"}, {"b", "c"}, {"a", "d"}, {"d", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range w.TopoOrder() {
		pos[n.Name] = i
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "d"}, {"d", "c"}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %v violated in topo order", e)
		}
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	w := mustChain(t)
	if got := w.Successors("a"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Successors(a) = %v", got)
	}
	if got := w.Predecessors("a"); len(got) != 0 {
		t.Fatalf("Predecessors(a) = %v", got)
	}
	if got := w.Predecessors("c"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Predecessors(c) = %v", got)
	}
}

func TestNodeLookup(t *testing.T) {
	w := mustChain(t)
	n, ok := w.Node("b")
	if !ok || n.Function != "b" {
		t.Fatalf("Node(b) = %v, %v", n, ok)
	}
	if _, ok := w.Node("zz"); ok {
		t.Fatal("Node(zz) should not exist")
	}
}

func TestWithSLO(t *testing.T) {
	w := mustChain(t)
	w2, err := w.WithSLO(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if w2.SLO() != 5*time.Second || w.SLO() != time.Second {
		t.Fatal("WithSLO should copy, not mutate")
	}
	if _, err := w.WithSLO(0); err == nil {
		t.Fatal("WithSLO(0) should fail")
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	w := mustChain(t)
	w.Nodes()[0].Name = "mutated"
	if n, _ := w.Node("a"); n.Name != "a" {
		t.Fatal("Nodes() exposed internal state")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	w := IntelligentAssistant()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "ia" || back.SLO() != 3*time.Second || back.Len() != 3 {
		t.Fatalf("round trip lost data: %s %v %d", back.Name(), back.SLO(), back.Len())
	}
	if !back.IsChain() {
		t.Fatal("round trip lost the chain shape")
	}
	groups := back.DecisionGroups()
	if groups[0].Nodes[0].Function != "od" || groups[1].Nodes[0].Function != "qa" || groups[2].Nodes[0].Function != "ts" {
		t.Fatalf("round trip chain = %+v", groups)
	}
}

func TestParseSpecErrors(t *testing.T) {
	if _, err := ParseSpec([]byte("{")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x","slo_ms":0,"functions":[{"name":"a","function":"f"}]}`)); err == nil {
		t.Fatal("zero SLO accepted")
	}
	// An slo_ms whose nanosecond Duration overflows int64 must be
	// rejected, not wrapped into a tiny or bogus positive SLO.
	for _, slo := range []string{"18446744073710", "9223372036855", "-10000000000000"} {
		spec := `{"name":"x","slo_ms":` + slo + `,"functions":[{"name":"a","function":"fe"}]}`
		if w, err := ParseSpec([]byte(spec)); err == nil {
			t.Errorf("slo_ms %s accepted as SLO %v", slo, w.SLO())
		}
	}
	w, err := ParseSpec([]byte(`{"name":"x","slo_ms":9223372036854,"functions":[{"name":"a","function":"fe"}]}`))
	if err != nil || w.SLO() != 9223372036854*time.Millisecond {
		t.Fatalf("largest representable slo_ms: %v, %v", w, err)
	}
}

func TestCatalogWorkflows(t *testing.T) {
	ia := IntelligentAssistant()
	if ia.SLO() != 3*time.Second {
		t.Errorf("IA SLO = %v, want 3s", ia.SLO())
	}
	va := VideoAnalyze()
	if va.SLO() != 1500*time.Millisecond {
		t.Errorf("VA SLO = %v, want 1.5s", va.SLO())
	}
	for _, w := range []*Workflow{ia, va} {
		if !w.IsChain() || w.Len() != 3 {
			t.Errorf("%s: not a 3-function chain", w.Name())
		}
	}
	sp := VideoAnalyzeSP()
	if sp.Name() != "va-sp" || sp.SLO() != 1100*time.Millisecond {
		t.Errorf("VA-SP = %s at %v, want va-sp at 1.1s", sp.Name(), sp.SLO())
	}
	groups := sp.DecisionGroups()
	if !sp.IsSeriesParallel() || sp.IsChain() || len(groups) != 2 || len(groups[0].Nodes) != 1 || len(groups[1].Nodes) != 2 {
		t.Errorf("VA-SP is not fe -> (icl || ico): %+v", groups)
	}
}

func TestNewChainEmpty(t *testing.T) {
	if _, err := NewChain("x", time.Second); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestNewSeriesParallelShape(t *testing.T) {
	w, err := NewSeriesParallel("diamond", 3*time.Second, [][]string{{"od"}, {"qa", "ts"}, {"ico"}})
	if err != nil {
		t.Fatal(err)
	}
	if w.IsChain() {
		t.Fatal("fan-out workflow reported as chain")
	}
	if !w.IsSeriesParallel() {
		t.Fatal("fork-join workflow not series-parallel")
	}
	groups := w.DecisionGroups()
	if len(groups) != 3 || len(groups[0].Nodes) != 1 || len(groups[1].Nodes) != 2 || len(groups[2].Nodes) != 1 {
		t.Fatalf("decomposition shape %+v", groups)
	}
	if groups[1].Nodes[0].Function != "qa" || groups[1].Nodes[1].Function != "ts" {
		t.Fatalf("stage 1 branch order %+v", groups[1].Nodes)
	}
	// Full bipartite join: ico depends on both branches.
	if got := w.Predecessors("ico"); len(got) != 2 {
		t.Fatalf("ico predecessors %v", got)
	}
}

func TestNewSeriesParallelDuplicateFunctions(t *testing.T) {
	w, err := NewSeriesParallel("dup", time.Second, [][]string{{"fe"}, {"icl", "icl"}})
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsSeriesParallel() {
		t.Fatal("fork-join workflow not series-parallel")
	}
	stage := w.DecisionGroups()[1].Nodes
	if len(stage) != 2 || stage[0].Function != "icl" || stage[1].Function != "icl" {
		t.Fatalf("duplicate-function stage %v", stage)
	}
	if stage[0].Name == stage[1].Name {
		t.Fatal("duplicate branches share a step name")
	}
}

func TestNewSeriesParallelValidation(t *testing.T) {
	if _, err := NewSeriesParallel("x", time.Second, nil); err == nil {
		t.Error("empty stage list accepted")
	}
	if _, err := NewSeriesParallel("x", time.Second, [][]string{{"od"}, {}}); err == nil {
		t.Error("empty stage accepted")
	}
	if _, err := NewSeriesParallel("x", 0, [][]string{{"od"}}); err == nil {
		t.Error("zero SLO accepted")
	}
}

func TestSeriesParallelOfChain(t *testing.T) {
	groups := IntelligentAssistant().DecisionGroups()
	if len(groups) != 3 {
		t.Fatalf("%d stages", len(groups))
	}
	for i, g := range groups {
		if len(g.Nodes) != 1 {
			t.Fatalf("chain stage %d has %d branches", i, len(g.Nodes))
		}
	}
	if !IntelligentAssistant().IsSeriesParallel() {
		t.Fatal("chain not series-parallel")
	}
}

func TestSeriesParallelRejectsGeneralDAGs(t *testing.T) {
	// Partial join: d depends on only one of stage 1's two branches.
	partial, err := New("partial", time.Second,
		[]Node{{Name: "a", Function: "od"}, {Name: "b", Function: "qa"}, {Name: "c", Function: "ts"}, {Name: "d", Function: "ico"}},
		[][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	if partial.IsSeriesParallel() {
		t.Error("partial join accepted")
	}
	// Stage-skipping edge: a -> c alongside a -> b -> c.
	skip, err := New("skip", time.Second,
		[]Node{{Name: "a", Function: "od"}, {Name: "b", Function: "qa"}, {Name: "c", Function: "ts"}},
		[][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if skip.IsSeriesParallel() {
		t.Error("stage-skipping edge accepted")
	}
}

func TestDuplicateEdgesRejected(t *testing.T) {
	nodes := []Node{{Name: "a", Function: "od"}, {Name: "b", Function: "qa"}, {Name: "c", Function: "ts"}}
	if _, err := New("dup", time.Second, nodes, [][2]string{{"a", "c"}, {"a", "c"}, {"a", "b"}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	// Without the rejection, the duplicated a->c edge would give c two
	// predecessors and fool the series-parallel full-join check into
	// treating {a, b} -> c as a join that includes b.
}
