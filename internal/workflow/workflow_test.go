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
	chain, err := w.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[0].Name != "a" || chain[2].Name != "c" {
		t.Fatalf("chain order = %v", chain)
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
	if _, err := fanOut.Chain(); err == nil {
		t.Fatal("Chain() on fan-out should fail")
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

func TestSuffix(t *testing.T) {
	w := mustChain(t)
	s1, err := w.Suffix(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 2 || s1[0].Name != "b" {
		t.Fatalf("Suffix(1) = %v", s1)
	}
	if _, err := w.Suffix(3); err == nil {
		t.Fatal("Suffix(3) out of range should fail")
	}
	if _, err := w.Suffix(-1); err == nil {
		t.Fatal("Suffix(-1) should fail")
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
	chain, err := back.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].Function != "od" || chain[1].Function != "qa" || chain[2].Function != "ts" {
		t.Fatalf("round trip chain = %v", chain)
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
	stages, err := sp.SeriesParallel()
	if err != nil || sp.IsChain() || len(stages) != 2 || len(stages[0]) != 1 || len(stages[1]) != 2 {
		t.Errorf("VA-SP is not fe -> (icl || ico): %v, %v", stages, err)
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
	stages, err := w.SeriesParallel()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 || len(stages[0]) != 1 || len(stages[1]) != 2 || len(stages[2]) != 1 {
		t.Fatalf("decomposition shape %v", stages)
	}
	if stages[1][0].Function != "qa" || stages[1][1].Function != "ts" {
		t.Fatalf("stage 1 branch order %v", stages[1])
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
	stages, err := w.SeriesParallel()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages[1]) != 2 || stages[1][0].Function != "icl" || stages[1][1].Function != "icl" {
		t.Fatalf("duplicate-function stage %v", stages[1])
	}
	if stages[1][0].Name == stages[1][1].Name {
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
	stages, err := IntelligentAssistant().SeriesParallel()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("%d stages", len(stages))
	}
	for i, st := range stages {
		if len(st) != 1 {
			t.Fatalf("chain stage %d has %d branches", i, len(st))
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
	if _, err := partial.SeriesParallel(); err == nil {
		t.Error("partial join accepted")
	}
	// Stage-skipping edge: a -> c alongside a -> b -> c.
	skip, err := New("skip", time.Second,
		[]Node{{Name: "a", Function: "od"}, {Name: "b", Function: "qa"}, {Name: "c", Function: "ts"}},
		[][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := skip.SeriesParallel(); err == nil {
		t.Error("stage-skipping edge accepted")
	}
	// Two roots at different effective depths joined later.
	if partial.IsSeriesParallel() {
		t.Error("IsSeriesParallel true for partial join")
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
