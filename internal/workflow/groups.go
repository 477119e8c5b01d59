package workflow

import (
	"encoding/binary"
	"slices"
	"sync"
)

// Group is one decision group of the node-granular serving engine: a
// maximal set of nodes sharing an identical predecessor set. Such nodes
// become ready at the same instant — the moment their common predecessors
// have all completed — and receive one allocation decision, generalizing
// the one-decision-per-stage rule of fork-join serving. For a chain every
// group is a single node; for a series-parallel workflow the groups are
// exactly the fork-join stages.
type Group struct {
	// Nodes are the group members, in node declaration order.
	Nodes []Node
	// Preds lists the step names that must all complete before the group
	// starts, in topological order. Empty for the root group.
	Preds []string
}

// DecisionGroups returns the workflow's decision groups, ordered by the
// topological position of each group's first-declared member (members
// keep declaration order). The partition is a pure function of the DAG:
// every root shares the empty predecessor set, so group 0 is the root
// group, and for series-parallel workflows the groups are the fork-join
// stages. New computes it once; the slice and its groups are shared, and
// the caller must not mutate them.
func (w *Workflow) DecisionGroups() []Group { return w.groups }

// partition computes the decision groups and each node's group index.
func (w *Workflow) partition() {
	pos := make([]int, len(w.nodes)) // node index -> topological position
	for p, idx := range w.order {
		pos[idx] = p
	}
	byPos := func(a, b string) int { return pos[w.index[a]] - pos[w.index[b]] }
	// Key groups by their predecessors' topological positions; a lookup
	// through string(key) does not allocate.
	ids := make(map[string]int)
	var key []byte
	for _, n := range w.nodes { // declaration order keeps members ordered
		preds := slices.Clip(slices.Clone(w.pred[n.Name]))
		slices.SortFunc(preds, byPos)
		key = key[:0]
		for _, p := range preds {
			key = binary.AppendUvarint(key, uint64(pos[w.index[p]]))
		}
		g, ok := ids[string(key)]
		if !ok {
			g = len(w.groups)
			ids[string(key)] = g
			w.groups = append(w.groups, Group{Preds: preds})
		}
		w.groups[g].Nodes = append(w.groups[g].Nodes, n)
	}
	// Order the groups by their first member's topological position.
	slices.SortFunc(w.groups, func(a, b Group) int { return byPos(a.Nodes[0].Name, b.Nodes[0].Name) })
	w.groups = slices.Clip(w.groups)
	w.groupOf = make([]int, len(w.nodes))
	for g := range w.groups {
		w.groups[g].Nodes = slices.Clip(w.groups[g].Nodes)
		for _, n := range w.groups[g].Nodes {
			w.groupOf[w.index[n.Name]] = g
		}
	}
	w.cones = new(coneSet)
}

// coneSet holds every group's layered descendant cone, built at the first
// GroupConeLayers call: a chain's cones total quadratic size (161 MB for
// 2000 nodes), and validation paths (catalog loads, profile sets) build
// workflows without reading a cone.
type coneSet struct {
	once   sync.Once
	layers [][][]int
}

// GroupConeLayers returns the descendant cone of decision group g — g
// itself plus every group reachable from it — arranged into layers by
// longest-path depth from g over the group DAG. Layer 0 is [g] alone;
// groups within a layer are in ascending group order. The layered cone is
// the sub-workflow a hints table for g covers: its sequential composition
// (max over a layer's groups, layers in order) upper-bounds the cone's
// max-over-paths latency, which is the conservative shape Algorithm 1's
// budget split needs. For a chain or series-parallel workflow the cone of
// group g is exactly the stage suffix starting at g, one group per layer.
// Every cone is computed once per workflow; the layers are shared, and
// the caller must not mutate them.
func (w *Workflow) GroupConeLayers(g int) [][]int {
	if g < 0 || g >= len(w.groups) {
		return nil
	}
	w.cones.once.Do(w.layerCones)
	return w.cones.layers[g]
}

// layerCones computes every group's layered descendant cone.
func (w *Workflow) layerCones() {
	ng := len(w.groups)
	// succ[g] lists the groups an edge leads to from a member of g.
	succ := make([][]int, ng)
	for g, grp := range w.groups {
		for _, n := range grp.Nodes {
			for _, next := range w.succ[n.Name] {
				if h := w.groupOf[w.index[next]]; !slices.Contains(succ[g], h) {
					succ[g] = append(succ[g], h)
				}
			}
		}
	}
	// Group indices are topologically ordered (a group's first member
	// sits after all its predecessors), so a group's longest-path depth
	// from g is final when an ascending pass reaches it, and the pass
	// fills every layer in ascending group order.
	depth := make([]int, ng)
	w.cones.layers = make([][][]int, ng)
	for g := range w.groups {
		for h := g; h < ng; h++ {
			depth[h] = -1
		}
		depth[g] = 0
		var cone [][]int
		for h := g; h < ng; h++ {
			d := depth[h]
			if d < 0 {
				continue // not in g's cone
			}
			if d == len(cone) {
				cone = append(cone, nil)
			}
			cone[d] = append(cone[d], h)
			for _, next := range succ[h] {
				depth[next] = max(depth[next], d+1)
			}
		}
		for d := range cone {
			cone[d] = slices.Clip(cone[d])
		}
		w.cones.layers[g] = slices.Clip(cone)
	}
}
