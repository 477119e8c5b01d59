// Package workflow models serverless application workflows as DAGs of
// functions, in the style of AWS Step Functions / Azure Durable Functions
// state machines. A node is a function invocation; an edge is a data
// dependency. The paper's evaluation workflows (Intelligent Assistant and
// Video Analyze) are three-function chains; serving, profiling, and hints
// synthesis all operate on arbitrary DAGs through the decision-group view
// (DecisionGroups, GroupConeLayers), of which chains and series-parallel
// fork-joins are special cases. The partition is computed once per
// workflow and shared, read-only, by every caller.
package workflow

import (
	"fmt"
	"time"
)

// Node is one function invocation step in a workflow.
type Node struct {
	// Name is the step name, unique within the workflow.
	Name string `json:"name"`
	// Function is the deployed function the step invokes (a perfmodel
	// catalog name in this reproduction).
	Function string `json:"function"`
}

// Workflow is an immutable, validated DAG with an end-to-end latency SLO.
type Workflow struct {
	name  string
	slo   time.Duration
	nodes []Node
	index map[string]int
	succ  map[string][]string
	pred  map[string][]string
	order []int // topological order over node indices
	// groups is the decision-group partition and groupOf each node
	// index's group, both computed by New (groups.go); cones holds every
	// group's layered descendant cone. A WithSLO copy shares all three.
	groups  []Group
	groupOf []int
	cones   *coneSet
	// dyn holds dynamic node annotations keyed by step name; nil for
	// static workflows (see dynamic.go). The skeleton above is always a
	// validated static DAG — dynamic behavior only projects it down per
	// request at serving time.
	dyn map[string]DynamicNode
	// dynSteps lists the annotated step names in topological order,
	// computed by NewDynamic.
	dynSteps []string
}

// New builds and validates a workflow. Edges are (from, to) pairs over step
// names. The graph must be non-empty, acyclic, uniquely named, and every
// edge endpoint must exist.
func New(name string, slo time.Duration, nodes []Node, edges [][2]string) (*Workflow, error) {
	if name == "" {
		return nil, fmt.Errorf("workflow: name required")
	}
	if slo <= 0 {
		return nil, fmt.Errorf("workflow %s: SLO must be positive, got %v", name, slo)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("workflow %s: needs at least one node", name)
	}
	w := &Workflow{
		name:  name,
		slo:   slo,
		nodes: make([]Node, len(nodes)),
		index: make(map[string]int, len(nodes)),
		succ:  make(map[string][]string),
		pred:  make(map[string][]string),
	}
	copy(w.nodes, nodes)
	for i, n := range w.nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("workflow %s: node %d has no name", name, i)
		}
		if n.Function == "" {
			return nil, fmt.Errorf("workflow %s: node %q has no function", name, n.Name)
		}
		if _, dup := w.index[n.Name]; dup {
			return nil, fmt.Errorf("workflow %s: duplicate node name %q", name, n.Name)
		}
		w.index[n.Name] = i
	}
	seenEdges := make(map[[2]string]bool, len(edges))
	for _, e := range edges {
		from, to := e[0], e[1]
		if _, ok := w.index[from]; !ok {
			return nil, fmt.Errorf("workflow %s: edge from unknown node %q", name, from)
		}
		if _, ok := w.index[to]; !ok {
			return nil, fmt.Errorf("workflow %s: edge to unknown node %q", name, to)
		}
		if from == to {
			return nil, fmt.Errorf("workflow %s: self edge on %q", name, from)
		}
		// Duplicates would corrupt predecessor counts (the series-parallel
		// full-join check relies on them) and are always spec errors.
		if seenEdges[e] {
			return nil, fmt.Errorf("workflow %s: duplicate edge %q -> %q", name, from, to)
		}
		seenEdges[e] = true
		w.succ[from] = append(w.succ[from], to)
		w.pred[to] = append(w.pred[to], from)
	}
	// A node with no edges in a workflow that HAS edges is almost always
	// a spec typo (an edge endpoint misspelled into oblivion); the
	// serving engine would happily run it concurrently with everything
	// else, so reject it at validation time where the developer can see
	// it. An entirely edge-less workflow stays valid: that is a pure
	// fork — every node in one decision group, joining at completion —
	// the shape a single-stage parallel workflow converts to.
	if len(edges) > 0 {
		for _, n := range w.nodes {
			if len(w.pred[n.Name]) == 0 && len(w.succ[n.Name]) == 0 {
				return nil, fmt.Errorf("workflow %s: node %q is disconnected (no edges reference it)", name, n.Name)
			}
		}
	}
	order, err := w.topoSort()
	if err != nil {
		return nil, err
	}
	w.order = order
	w.partition()
	return w, nil
}

// NewChain builds a linear workflow through the given function names,
// naming each step after its function.
func NewChain(name string, slo time.Duration, functions ...string) (*Workflow, error) {
	if len(functions) == 0 {
		return nil, fmt.Errorf("workflow %s: chain needs at least one function", name)
	}
	nodes := make([]Node, len(functions))
	edges := make([][2]string, 0, len(functions)-1)
	for i, f := range functions {
		nodes[i] = Node{Name: f, Function: f}
		if i > 0 {
			edges = append(edges, [2]string{functions[i-1], f})
		}
	}
	return New(name, slo, nodes, edges)
}

// NewSeriesParallel builds a fork-join workflow: stages execute in order,
// the functions inside a stage run as concurrent branches, and every stage
// joins (waits for its slowest branch) before the next stage starts. Edges
// form the full bipartite join between consecutive stages — the Parallel
// state of Amazon States Language. Step names default to the function name;
// a function appearing more than once is disambiguated with its stage and
// branch position.
func NewSeriesParallel(name string, slo time.Duration, stages [][]string) (*Workflow, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("workflow %s: needs at least one stage", name)
	}
	seen := make(map[string]int)
	for _, st := range stages {
		for _, f := range st {
			seen[f]++
		}
	}
	var nodes []Node
	names := make([][]string, len(stages))
	for i, st := range stages {
		if len(st) == 0 {
			return nil, fmt.Errorf("workflow %s: stage %d is empty", name, i)
		}
		names[i] = make([]string, len(st))
		for b, f := range st {
			stepName := f
			if seen[f] > 1 {
				stepName = fmt.Sprintf("s%d.%d:%s", i, b, f)
			}
			names[i][b] = stepName
			nodes = append(nodes, Node{Name: stepName, Function: f})
		}
	}
	var edges [][2]string
	for i := 1; i < len(stages); i++ {
		for _, from := range names[i-1] {
			for _, to := range names[i] {
				edges = append(edges, [2]string{from, to})
			}
		}
	}
	return New(name, slo, nodes, edges)
}

func (w *Workflow) topoSort() ([]int, error) {
	indeg := make(map[string]int, len(w.nodes))
	for _, n := range w.nodes {
		indeg[n.Name] = len(w.pred[n.Name])
	}
	var queue []string
	// Seed in node-declaration order for deterministic output.
	for _, n := range w.nodes {
		if indeg[n.Name] == 0 {
			queue = append(queue, n.Name)
		}
	}
	var order []int
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, w.index[cur])
		for _, next := range w.succ[cur] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if len(order) != len(w.nodes) {
		return nil, fmt.Errorf("workflow %s: cycle detected", w.name)
	}
	return order, nil
}

// Name reports the workflow name.
func (w *Workflow) Name() string { return w.name }

// SLO reports the end-to-end latency objective.
func (w *Workflow) SLO() time.Duration { return w.slo }

// Len reports the number of nodes.
func (w *Workflow) Len() int { return len(w.nodes) }

// Nodes returns the nodes in declaration order (a copy).
func (w *Workflow) Nodes() []Node {
	out := make([]Node, len(w.nodes))
	copy(out, w.nodes)
	return out
}

// Node returns the node with the given step name.
func (w *Workflow) Node(name string) (Node, bool) {
	i, ok := w.index[name]
	if !ok {
		return Node{}, false
	}
	return w.nodes[i], true
}

// Successors returns the step names directly downstream of name.
func (w *Workflow) Successors(name string) []string {
	out := make([]string, len(w.succ[name]))
	copy(out, w.succ[name])
	return out
}

// Predecessors returns the step names directly upstream of name.
func (w *Workflow) Predecessors(name string) []string {
	out := make([]string, len(w.pred[name]))
	copy(out, w.pred[name])
	return out
}

// TopoOrder returns the nodes in a deterministic topological order.
func (w *Workflow) TopoOrder() []Node {
	out := make([]Node, len(w.order))
	for i, idx := range w.order {
		out[i] = w.nodes[idx]
	}
	return out
}

// IsSeriesParallel reports whether the workflow decomposes into fork-join
// stages: every decision group after the first joins exactly the whole
// group before it, so the groups are the stages. Chains included — every
// chain is a one-branch-per-stage series-parallel workflow.
func (w *Workflow) IsSeriesParallel() bool {
	for g := 1; g < len(w.groups); g++ {
		preds := w.groups[g].Preds
		if len(preds) != len(w.groups[g-1].Nodes) {
			return false
		}
		for _, p := range preds {
			if w.groupOf[w.index[p]] != g-1 {
				return false
			}
		}
	}
	return true
}

// IsChain reports whether the workflow is a simple linear chain: a
// series-parallel workflow with one node per group.
func (w *Workflow) IsChain() bool {
	return len(w.groups) == len(w.nodes) && w.IsSeriesParallel()
}

// WithSLO returns a copy of the workflow with a different SLO. Hints tables
// are synthesized per-SLO, so SLO sweeps re-derive workflows this way. The
// copy shares the original's decision groups, cones and dynamic steps.
func (w *Workflow) WithSLO(slo time.Duration) (*Workflow, error) {
	if slo <= 0 {
		return nil, fmt.Errorf("workflow %s: SLO must be positive, got %v", w.name, slo)
	}
	cp := *w
	cp.slo = slo
	return &cp, nil
}
