package workflow

import (
	"strings"
	"testing"
	"time"
)

// TestNewValidationEdgeCases pins a distinct, descriptive error for each
// spec mistake: self-loop edges, duplicate edges, edges naming unknown
// nodes, and disconnected nodes.
func TestNewValidationEdgeCases(t *testing.T) {
	nodes := []Node{{Name: "a", Function: "f"}, {Name: "b", Function: "f"}, {Name: "c", Function: "f"}}
	cases := []struct {
		name  string
		edges [][2]string
		want  string
	}{
		{"self-loop", [][2]string{{"a", "a"}, {"a", "b"}, {"b", "c"}}, "self edge"},
		{"duplicate edge", [][2]string{{"a", "b"}, {"a", "b"}, {"b", "c"}}, "duplicate edge"},
		{"unknown from", [][2]string{{"ghost", "b"}, {"a", "b"}, {"b", "c"}}, `edge from unknown node "ghost"`},
		{"unknown to", [][2]string{{"a", "ghost"}, {"a", "b"}, {"b", "c"}}, `edge to unknown node "ghost"`},
		{"disconnected node", [][2]string{{"a", "b"}}, `node "c" is disconnected`},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		_, err := New("bad", time.Second, nodes, c.edges)
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if seen[err.Error()] {
			t.Errorf("%s: error %q duplicates another case's message", c.name, err)
		}
		seen[err.Error()] = true
	}
	// A single-node workflow has no edges by construction and stays valid.
	if _, err := New("solo", time.Second, nodes[:1], nil); err != nil {
		t.Fatalf("single-node workflow rejected: %v", err)
	}
	// An entirely edge-less multi-node workflow is a pure fork (one
	// decision group), the shape a single-stage parallel workflow
	// converts to — also valid.
	fork, err := New("fork", time.Second, nodes, nil)
	if err != nil {
		t.Fatalf("edge-less fork rejected: %v", err)
	}
	if groups := fork.DecisionGroups(); len(groups) != 1 || len(groups[0].Nodes) != 3 {
		t.Fatalf("edge-less fork groups = %+v", groups)
	}
}

func crossDAG(t *testing.T) *Workflow {
	t.Helper()
	nodes := []Node{
		{Name: "pre", Function: "f"},
		{Name: "detect", Function: "f"},
		{Name: "classify", Function: "f"},
		{Name: "ocr", Function: "f"},
		{Name: "fuse", Function: "f"},
	}
	edges := [][2]string{
		{"pre", "detect"}, {"pre", "classify"},
		{"detect", "ocr"},
		{"detect", "fuse"}, {"classify", "fuse"}, {"ocr", "fuse"},
	}
	w, err := New("cross", time.Second, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDecisionGroupsChainAndSP(t *testing.T) {
	// Chain: one group per node, in order.
	chain, err := NewChain("c", time.Second, "f1", "f2", "f3")
	if err != nil {
		t.Fatal(err)
	}
	groups := chain.DecisionGroups()
	if len(groups) != 3 {
		t.Fatalf("chain has %d groups", len(groups))
	}
	for i, g := range groups {
		if len(g.Nodes) != 1 {
			t.Fatalf("chain group %d has %d nodes", i, len(g.Nodes))
		}
	}
	if groups[0].Nodes[0].Name != "f1" || len(groups[0].Preds) != 0 {
		t.Fatalf("root group = %+v", groups[0])
	}
	if groups[2].Nodes[0].Name != "f3" || len(groups[2].Preds) != 1 || groups[2].Preds[0] != "f2" {
		t.Fatalf("tail group = %+v", groups[2])
	}

	// Series-parallel: the groups are the declared stages exactly.
	stages := [][]string{{"fe"}, {"icl", "ico"}, {"agg"}}
	sp, err := NewSeriesParallel("sp", time.Second, stages)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IsSeriesParallel() {
		t.Fatal("fork-join workflow not series-parallel")
	}
	spGroups := sp.DecisionGroups()
	if len(spGroups) != len(stages) {
		t.Fatalf("%d groups for %d stages", len(spGroups), len(stages))
	}
	for i := range stages {
		if len(spGroups[i].Nodes) != len(stages[i]) {
			t.Fatalf("group %d has %d nodes, stage has %d", i, len(spGroups[i].Nodes), len(stages[i]))
		}
		for b, f := range stages[i] {
			if n := spGroups[i].Nodes[b]; n.Name != f || n.Function != f {
				t.Fatalf("group %d branch %d = %+v, stage has %s", i, b, n, f)
			}
		}
	}
}

func TestDecisionGroupsCrossEdgeDAG(t *testing.T) {
	w := crossDAG(t)
	if w.IsSeriesParallel() || w.IsChain() {
		t.Fatal("cross-edge DAG misclassified as chain/SP")
	}
	groups := w.DecisionGroups()
	if len(groups) != 4 {
		t.Fatalf("%d groups: %+v", len(groups), groups)
	}
	names := func(g Group) string {
		var out []string
		for _, n := range g.Nodes {
			out = append(out, n.Name)
		}
		return strings.Join(out, ",")
	}
	want := []string{"pre", "detect,classify", "ocr", "fuse"}
	for i, g := range groups {
		if names(g) != want[i] {
			t.Fatalf("group %d = %s, want %s", i, names(g), want[i])
		}
	}
	// fuse joins three nodes from two different groups.
	if len(groups[3].Preds) != 3 {
		t.Fatalf("fuse preds = %v", groups[3].Preds)
	}
}

func TestGroupConeLayers(t *testing.T) {
	w := crossDAG(t)
	cases := []struct {
		g    int
		want [][]int
	}{
		{0, [][]int{{0}, {1}, {2}, {3}}},
		{1, [][]int{{1}, {2}, {3}}},
		{2, [][]int{{2}, {3}}},
		{3, [][]int{{3}}},
	}
	for _, c := range cases {
		got := w.GroupConeLayers(c.g)
		if len(got) != len(c.want) {
			t.Fatalf("cone(%d) = %v, want %v", c.g, got, c.want)
		}
		for d := range got {
			if len(got[d]) != len(c.want[d]) {
				t.Fatalf("cone(%d) layer %d = %v, want %v", c.g, d, got[d], c.want[d])
			}
			for i := range got[d] {
				if got[d][i] != c.want[d][i] {
					t.Fatalf("cone(%d) layer %d = %v, want %v", c.g, d, got[d], c.want[d])
				}
			}
		}
	}
	if layers := w.GroupConeLayers(99); layers != nil {
		t.Fatalf("out-of-range cone = %v", layers)
	}

	// Two same-depth branches with distinct predecessor sets land in one
	// layer of the shared ancestor's cone: a -> b -> d, a -> c -> e, d/e
	// join at f. b and c share preds {a} (one group); d and e do not.
	nodes := []Node{
		{Name: "a", Function: "f"}, {Name: "b", Function: "f"}, {Name: "c", Function: "f"},
		{Name: "d", Function: "f"}, {Name: "e", Function: "f"}, {Name: "f", Function: "f"},
	}
	edges := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "e"}, {"d", "f"}, {"e", "f"}}
	w2, err := New("twin", time.Second, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	groups := w2.DecisionGroups()
	if len(groups) != 5 { // [a] [b,c] [d] [e] [f]
		t.Fatalf("%d groups", len(groups))
	}
	layers := w2.GroupConeLayers(0)
	if len(layers) != 4 || len(layers[2]) != 2 {
		t.Fatalf("twin cone layers = %v", layers)
	}
}
