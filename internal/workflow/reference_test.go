package workflow

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// The functions below are the partition as it was computed before the
// workflow stored it: the decision groups and cone layers rebuilt on every
// call, the depth-based series-parallel decomposition and the
// degree-based chain test. They are kept, unchanged but for their names,
// as the oracle the stored partition and the predicates over it must
// reproduce.

func refDecisionGroups(w *Workflow) []Group {
	topoPos := make(map[string]int, len(w.nodes))
	for pos, idx := range w.order {
		topoPos[w.nodes[idx].Name] = pos
	}
	type bucket struct {
		nodes []Node
		preds []string
	}
	buckets := make(map[string]*bucket)
	for _, n := range w.nodes {
		preds := append([]string(nil), w.pred[n.Name]...)
		sort.Slice(preds, func(i, j int) bool { return topoPos[preds[i]] < topoPos[preds[j]] })
		sig := ""
		for _, p := range preds {
			sig += p + "\x00"
		}
		b, ok := buckets[sig]
		if !ok {
			b = &bucket{preds: preds}
			buckets[sig] = b
		}
		b.nodes = append(b.nodes, n)
	}
	out := make([]Group, 0, len(buckets))
	for _, b := range buckets {
		out = append(out, Group{Nodes: b.nodes, Preds: b.preds})
	}
	sort.Slice(out, func(i, j int) bool {
		return topoPos[out[i].Nodes[0].Name] < topoPos[out[j].Nodes[0].Name]
	})
	return out
}

func refGroupSucc(w *Workflow, groups []Group) [][]int {
	idx := make(map[string]int)
	for g, grp := range groups {
		for _, n := range grp.Nodes {
			idx[n.Name] = g
		}
	}
	succ := make([][]int, len(groups))
	for g, grp := range groups {
		seen := map[int]bool{}
		for _, n := range grp.Nodes {
			for _, next := range w.succ[n.Name] {
				h := idx[next]
				if h != g && !seen[h] {
					seen[h] = true
					succ[g] = append(succ[g], h)
				}
			}
		}
		sort.Ints(succ[g])
	}
	return succ
}

func refGroupConeLayers(w *Workflow, g int) [][]int {
	groups := refDecisionGroups(w)
	if g < 0 || g >= len(groups) {
		return nil
	}
	succ := refGroupSucc(w, groups)
	depth := map[int]int{g: 0}
	for cur := g; cur < len(groups); cur++ {
		d, ok := depth[cur]
		if !ok {
			continue
		}
		for _, next := range succ[cur] {
			if cand, seen := depth[next]; !seen || d+1 > cand {
				depth[next] = d + 1
			}
		}
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	layers := make([][]int, maxDepth+1)
	for idx := range groups {
		if d, ok := depth[idx]; ok {
			layers[d] = append(layers[d], idx)
		}
	}
	for _, layer := range layers {
		sort.Ints(layer)
	}
	return layers
}

func refSeriesParallel(w *Workflow) ([][]Node, error) {
	depth := make(map[string]int, len(w.nodes))
	maxDepth := 0
	for _, idx := range w.order {
		n := w.nodes[idx]
		d := 0
		for _, p := range w.pred[n.Name] {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[n.Name] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	stages := make([][]Node, maxDepth+1)
	for _, n := range w.nodes {
		stages[depth[n.Name]] = append(stages[depth[n.Name]], n)
	}
	for d, stage := range stages {
		for _, n := range stage {
			preds := w.pred[n.Name]
			if d == 0 {
				if len(preds) != 0 {
					return nil, fmt.Errorf("workflow %s: not series-parallel (node %q at stage 0 has predecessors)", w.name, n.Name)
				}
				continue
			}
			if len(preds) != len(stages[d-1]) {
				return nil, fmt.Errorf("workflow %s: not series-parallel (node %q joins %d of stage %d's %d branches)",
					w.name, n.Name, len(preds), d-1, len(stages[d-1]))
			}
			prev := make(map[string]bool, len(stages[d-1]))
			for _, p := range stages[d-1] {
				prev[p.Name] = true
			}
			for _, p := range preds {
				if !prev[p] {
					return nil, fmt.Errorf("workflow %s: not series-parallel (edge %q -> %q skips a stage)", w.name, p, n.Name)
				}
			}
		}
	}
	return stages, nil
}

func refIsChain(w *Workflow) bool {
	starts := 0
	for _, n := range w.nodes {
		if len(w.pred[n.Name]) == 0 {
			starts++
		}
		if len(w.pred[n.Name]) > 1 || len(w.succ[n.Name]) > 1 {
			return false
		}
	}
	return starts == 1
}

func refDynamicSteps(w *Workflow) []string {
	if len(w.dyn) == 0 {
		return nil
	}
	out := make([]string, 0, len(w.dyn))
	for step := range w.dyn {
		out = append(out, step)
	}
	topoPos := make(map[string]int, len(w.nodes))
	for pos, idx := range w.order {
		topoPos[w.nodes[idx].Name] = pos
	}
	sort.Slice(out, func(i, j int) bool { return topoPos[out[i]] < topoPos[out[j]] })
	return out
}

// checkPartition fails t unless every member of w's stored groups has its
// group's predecessor set and the groups, cones, dynamic steps and shape
// predicates equal the reference computations. A workflow with a NUL in a
// step name is held to the first property only: the reference keys groups
// by NUL-joined names, so it can merge distinct predecessor sets there.
func checkPartition(t *testing.T, w *Workflow) {
	t.Helper()
	groups := w.DecisionGroups()
	nul := false
	for g, grp := range groups {
		for _, n := range grp.Nodes {
			nul = nul || strings.Contains(n.Name, "\x00")
			if got, want := slices.Sorted(slices.Values(w.pred[n.Name])), slices.Sorted(slices.Values(grp.Preds)); !slices.Equal(got, want) {
				t.Fatalf("%s: %q in group %d has predecessors %q, the group %q", w.Name(), n.Name, g, got, want)
			}
		}
	}
	if nul {
		return
	}
	if want := refDecisionGroups(w); !reflect.DeepEqual(groups, want) {
		t.Fatalf("%s: groups %+v, reference %+v", w.Name(), groups, want)
	}
	stages, err := refSeriesParallel(w)
	if sp := w.IsSeriesParallel(); sp != (err == nil) {
		t.Fatalf("%s: IsSeriesParallel %v, reference decomposition error %v", w.Name(), sp, err)
	}
	if err == nil {
		for i, stage := range stages {
			if !reflect.DeepEqual(groups[i].Nodes, stage) {
				t.Fatalf("%s: group %d = %+v, reference stage %+v", w.Name(), i, groups[i].Nodes, stage)
			}
		}
	}
	if chain, want := w.IsChain(), refIsChain(w); chain != want {
		t.Fatalf("%s: IsChain %v, reference %v", w.Name(), chain, want)
	}
	for g := -1; g <= len(groups); g++ {
		if got, want := w.GroupConeLayers(g), refGroupConeLayers(w, g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cone(%d) = %v, reference %v", w.Name(), g, got, want)
		}
	}
	if got, want := w.DynamicSteps(), refDynamicSteps(w); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: dynamic steps %v, reference %v", w.Name(), got, want)
	}
}

// partitionCases are the shapes the stored partition is checked on: chains,
// fork-joins, the shapes the series-parallel test rejects, the cross-edge
// DAG, disjoint chains, a join whose shallower input is numbered last and
// the trigger-ml skeleton.
func partitionCases(t *testing.T) []*Workflow {
	t.Helper()
	must := func(w *Workflow, err error) *Workflow {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	fns := func(names ...string) []Node {
		out := make([]Node, len(names))
		for i, n := range names {
			out[i] = Node{Name: n, Function: "f"}
		}
		return out
	}
	nodes, edges := dynNodes()
	return []*Workflow{
		must(NewChain("chain", time.Second, "a", "b", "c", "d")),
		IntelligentAssistant(),
		VideoAnalyzeSP(),
		must(NewSeriesParallel("dup", time.Second, [][]string{{"fe"}, {"icl", "icl"}, {"ico"}})),
		must(New("fork", time.Second, fns("a", "b", "c"), nil)),
		must(New("solo", time.Second, fns("a"), nil)),
		must(New("partial", time.Second, fns("a", "b", "c", "d"),
			[][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}})),
		must(New("skip", time.Second, fns("a", "b", "c"),
			[][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}})),
		must(New("cross", time.Second, fns("preprocess", "detect", "classify", "ocr", "fuse", "publish"),
			[][2]string{
				{"preprocess", "detect"}, {"preprocess", "classify"}, {"detect", "ocr"},
				{"detect", "fuse"}, {"classify", "fuse"}, {"ocr", "fuse"}, {"fuse", "publish"},
			})),
		must(New("two", time.Second, fns("a", "b", "x", "y"), [][2]string{{"a", "b"}, {"x", "y"}})),
		// h joins c, two groups below g, and b, one group below g but
		// numbered after c: the relaxation through b comes last and must
		// not lower h's depth in g's cone.
		must(New("detour", time.Second, fns("s1", "s2", "g", "r1", "a", "r2", "c", "b", "h"),
			[][2]string{
				{"s1", "g"}, {"s2", "r1"}, {"r1", "r2"}, {"r2", "b"}, {"g", "b"},
				{"g", "a"}, {"a", "c"}, {"c", "h"}, {"b", "h"},
			})),
		must(NewDynamic("trigger-ml", time.Second, nodes, edges, []DynamicNode{
			{Step: "triage", Choice: &ChoiceSpec{Weights: []float64{0.55, 0.45}}},
			{Step: "ocr", Map: &MapSpec{MaxWidth: 6}, Retry: &RetrySpec{MaxRetries: 2, FailureProb: 0.15}},
			{Step: "gate", Await: true},
		})),
	}
}

// TestPartitionMatchesReference pins the stored partition, the predicates
// over it and the cones to the per-call reference on every case shape.
func TestPartitionMatchesReference(t *testing.T) {
	for _, w := range partitionCases(t) {
		checkPartition(t, w)
	}
}

// TestGroupsKeyPredecessorSetsNotNames: x waits for a and b, y for the
// one step named "a\x00b". The per-call reference signed both sets
// "a\x00b\x00" and put y in x's group, so y would have started on a and b;
// the stored partition keys topological positions and keeps them apart.
func TestGroupsKeyPredecessorSetsNotNames(t *testing.T) {
	nodes := []Node{
		{Name: "r", Function: "f"}, {Name: "a", Function: "f"}, {Name: "b", Function: "f"},
		{Name: "a\x00b", Function: "f"}, {Name: "x", Function: "f"}, {Name: "y", Function: "f"},
	}
	edges := [][2]string{{"r", "a"}, {"r", "b"}, {"r", "a\x00b"}, {"a", "x"}, {"b", "x"}, {"a\x00b", "y"}}
	w, err := New("nul", time.Second, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, w)
	if groups := w.DecisionGroups(); len(groups) != 4 {
		t.Fatalf("groups %+v, want x and y apart", groups)
	}
	if ref := refDecisionGroups(w); len(ref) != 3 {
		t.Fatalf("reference groups %+v: the reference no longer merges x and y", ref)
	}
}

// TestPartitionMatchesReferenceOnRandomDAGs draws seeded random DAGs of up
// to seven nodes, edges declared in random order, and checks each against
// the reference — including the shapes where two groups' members
// interleave in topological order.
func TestPartitionMatchesReferenceOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 23))
	for i := 0; i < 5000; i++ {
		n := 1 + rng.IntN(7)
		nodes := make([]Node, n)
		perm := rng.Perm(n) // declaration order differs from edge order
		for j := range nodes {
			nodes[j] = Node{Name: fmt.Sprintf("n%d", perm[j]), Function: "f"}
		}
		var edges [][2]string
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.IntN(3) == 0 {
					edges = append(edges, [2]string{fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b)})
				}
			}
		}
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		w, err := New(fmt.Sprintf("rand%d", i), time.Second, nodes, edges)
		if err != nil {
			continue // a disconnected node
		}
		checkPartition(t, w)
	}
}

// TestPartitionComputedOnce pins that the groups, every cone and the
// dynamic steps are stored: reading them allocates nothing, and a WithSLO
// copy shares them rather than rebuilding them.
func TestPartitionComputedOnce(t *testing.T) {
	for _, w := range partitionCases(t) {
		groups := w.DecisionGroups()
		if n := testing.AllocsPerRun(100, func() { _ = w.DecisionGroups() }); n != 0 {
			t.Errorf("%s: DecisionGroups allocates %v per call", w.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = w.DynamicSteps() }); n != 0 {
			t.Errorf("%s: DynamicSteps allocates %v per call", w.Name(), n)
		}
		cp, err := w.WithSLO(2 * w.SLO())
		if err != nil {
			t.Fatal(err)
		}
		// The copy builds the cones the original then reads.
		for g := range groups {
			if &cp.GroupConeLayers(g)[0][0] != &w.GroupConeLayers(g)[0][0] {
				t.Errorf("%s: the WithSLO copy does not share cone %d", w.Name(), g)
			}
			if n := testing.AllocsPerRun(100, func() { _ = w.GroupConeLayers(g) }); n != 0 {
				t.Errorf("%s: GroupConeLayers(%d) allocates %v per call", w.Name(), g, n)
			}
		}
		if &cp.DecisionGroups()[0] != &groups[0] {
			t.Errorf("%s: the WithSLO copy does not share the groups", w.Name())
		}
		if steps := w.DynamicSteps(); steps != nil && &cp.DynamicSteps()[0] != &steps[0] {
			t.Errorf("%s: the WithSLO copy does not share the dynamic steps", w.Name())
		}
	}
}

// TestConesConcurrentFirstUse reads every cone of fresh workflows from
// several goroutines at once: the first use builds the cones once, and
// every reader gets the same shared layers.
func TestConesConcurrentFirstUse(t *testing.T) {
	for _, w := range partitionCases(t) {
		var wg sync.WaitGroup
		roots := make([]*int, 8)
		for i := range roots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range w.DecisionGroups() {
					_ = w.GroupConeLayers(g)
				}
				roots[i] = &w.GroupConeLayers(0)[0][0]
			}()
		}
		wg.Wait()
		for i, p := range roots {
			if p != roots[0] {
				t.Fatalf("%s: reader %d got another copy of cone 0", w.Name(), i)
			}
		}
		checkPartition(t, w)
	}
}
