package workflow

import (
	"fmt"
	"strconv"
	"time"
)

// Dynamic node kinds generalize the static DAG: a workflow built with
// NewDynamic carries per-step annotations whose outcomes resolve online,
// while the *skeleton* — nodes, edges, decision groups, cone layers —
// stays a static DAG. That split is what keeps the paper's per-group
// machinery intact: DecisionGroups and GroupConeLayers operate on the
// skeleton (every conditional branch present, every map at declared
// width), so a static workflow is exactly the special case with no
// annotations, and the skeleton view is the conservative superset the
// synthesizer composites over for futures that have not resolved yet.
// Per-request resolution (which branch, what width, how many attempts)
// is the serving engine's job and is drawn from the request's seeded
// RNG, never from wall clock or scheduling order.
//
// Loops are deliberately not modeled as back-edges: a back-edge would
// destroy the acyclic layering GroupConeLayers depends on (New rejects
// cycles outright). A bounded loop is instead a RetrySpec annotation —
// the node re-executes up to MaxRetries extra times, each attempt a
// fresh allocation decision at its actual readiness instant — which
// keeps the skeleton acyclic while serving the same scenario class.

// Bounds keep resolved shapes enumerable (profiling cost is linear in
// MaxWidth) and loops provably finite.
const (
	// MaxMapWidth caps the fan-out a MapSpec may declare.
	MaxMapWidth = 32
	// MaxRetryBound caps the extra attempts a RetrySpec may declare.
	MaxRetryBound = 8
)

// DefaultMapDecay is the truncated-geometric decay used to draw a map
// node's width when the spec leaves Decay zero: width w has probability
// proportional to Decay^(w-1), truncated to [1, MaxWidth].
const DefaultMapDecay = 0.6

// ChoiceSpec marks a step as a conditional branch: when the step
// completes, exactly one of its successor edges is taken (chosen from
// the step's intermediate result; in this reproduction the choice is
// pre-drawn from the request's seeded RNG). The other successor
// subtrees are dead for that request — never scheduled, never billed.
type ChoiceSpec struct {
	// Weights are relative selection weights over the step's successor
	// edges in edge-declaration order. Nil means uniform. When set, the
	// length must equal the successor count and every weight must be
	// positive.
	Weights []float64 `json:"weights,omitempty"`
}

// MapSpec marks a step as a bounded data-dependent map: at the group's
// readiness instant the fan-out width w ∈ [1, MaxWidth] is drawn, and
// the step executes as w concurrent replicas that all must complete
// before the step counts as done (an implicit join, the Map state of
// Amazon States Language with a bounded item count).
type MapSpec struct {
	// MaxWidth is the inclusive upper bound on the drawn width. It must
	// be at least 1; a zero-width map is a spec error.
	MaxWidth int `json:"max_width"`
	// Decay is the truncated-geometric decay of the width draw
	// (probability ∝ Decay^(w-1)). Zero means DefaultMapDecay; it must
	// otherwise lie in (0, 1].
	Decay float64 `json:"decay,omitempty"`
}

// RetrySpec marks a step as a bounded loop: an attempt may fail (with
// FailureProb, pre-drawn per request) and the step then re-executes,
// up to MaxRetries extra attempts. The final permitted attempt always
// succeeds, so the loop is bounded by construction. Each re-attempt is
// a fresh allocation decision against the SLO budget that remains at
// that instant — the budget mechanism, not the table shape, absorbs
// the repeated work.
type RetrySpec struct {
	// MaxRetries is the number of extra attempts after the first. It
	// must be in [1, MaxRetryBound]; a non-positive bound would be an
	// unbounded loop and is rejected.
	MaxRetries int `json:"max_retries"`
	// FailureProb is the per-attempt failure probability in [0, 1).
	FailureProb float64 `json:"failure_prob,omitempty"`
}

// DynamicNode attaches dynamic behavior to one step of the skeleton.
// Choice is exclusive with the other kinds (it redirects control flow);
// Map and Retry compose (each map replica retries independently); Await
// composes with Retry but not Map or Choice.
type DynamicNode struct {
	// Step names the skeleton node the annotation applies to.
	Step string
	// Choice marks the step as a conditional branch.
	Choice *ChoiceSpec
	// Map marks the step as a bounded data-dependent map.
	Map *MapSpec
	// Retry marks the step as a bounded retry loop.
	Retry *RetrySpec
	// Await parks the step at readiness until an external trigger
	// (timer or stream event) addressed to it fires; the allocation
	// decision is deferred to that actual readiness instant. An await
	// step must form a singleton decision group, because its members-
	// share-one-decision contract would otherwise force unrelated
	// nodes to wait on the trigger.
	Await bool
}

// clone deep-copies the annotation so callers cannot mutate a validated
// workflow through retained spec pointers.
func (d DynamicNode) clone() DynamicNode {
	cp := d
	if d.Choice != nil {
		c := *d.Choice
		c.Weights = append([]float64(nil), d.Choice.Weights...)
		cp.Choice = &c
	}
	if d.Map != nil {
		m := *d.Map
		cp.Map = &m
	}
	if d.Retry != nil {
		r := *d.Retry
		cp.Retry = &r
	}
	return cp
}

// NewDynamic builds and validates a dynamic workflow: a static skeleton
// (same rules as New, including cycle rejection — a loop back-edge that
// would break GroupConeLayers layering fails here) plus dynamic node
// annotations. A call with no annotations is equivalent to New.
func NewDynamic(name string, slo time.Duration, nodes []Node, edges [][2]string, dynamic []DynamicNode) (*Workflow, error) {
	w, err := New(name, slo, nodes, edges)
	if err != nil {
		return nil, err
	}
	if len(dynamic) == 0 {
		return w, nil
	}
	dyn := make(map[string]DynamicNode, len(dynamic))
	for _, d := range dynamic {
		if _, ok := w.index[d.Step]; !ok {
			return nil, fmt.Errorf("workflow %s: dynamic spec for unknown step %q", name, d.Step)
		}
		if _, dup := dyn[d.Step]; dup {
			return nil, fmt.Errorf("workflow %s: duplicate dynamic spec for step %q", name, d.Step)
		}
		if d.Choice == nil && d.Map == nil && d.Retry == nil && !d.Await {
			return nil, fmt.Errorf("workflow %s: dynamic spec for step %q declares no behavior", name, d.Step)
		}
		if d.Choice != nil && (d.Map != nil || d.Retry != nil || d.Await) {
			return nil, fmt.Errorf("workflow %s: step %q: a choice cannot combine with map, retry, or await", name, d.Step)
		}
		if d.Await && d.Map != nil {
			return nil, fmt.Errorf("workflow %s: step %q: an await step cannot also be a map", name, d.Step)
		}
		if d.Choice != nil {
			succ := w.succ[d.Step]
			if len(succ) < 2 {
				return nil, fmt.Errorf("workflow %s: choice step %q has %d successor(s); a conditional needs at least two to choose between", name, d.Step, len(succ))
			}
			if d.Choice.Weights != nil {
				if len(d.Choice.Weights) != len(succ) {
					return nil, fmt.Errorf("workflow %s: choice step %q has %d weights for %d successors", name, d.Step, len(d.Choice.Weights), len(succ))
				}
				for i, wt := range d.Choice.Weights {
					if wt <= 0 {
						return nil, fmt.Errorf("workflow %s: choice step %q weight %d must be positive, got %v", name, d.Step, i, wt)
					}
				}
			}
		}
		if d.Map != nil {
			if d.Map.MaxWidth < 1 {
				return nil, fmt.Errorf("workflow %s: map step %q has width bound %d; a map needs width at least 1", name, d.Step, d.Map.MaxWidth)
			}
			if d.Map.MaxWidth > MaxMapWidth {
				return nil, fmt.Errorf("workflow %s: map step %q width bound %d exceeds the limit %d", name, d.Step, d.Map.MaxWidth, MaxMapWidth)
			}
			if d.Map.Decay != 0 && (d.Map.Decay <= 0 || d.Map.Decay > 1) {
				return nil, fmt.Errorf("workflow %s: map step %q decay %v outside (0, 1]", name, d.Step, d.Map.Decay)
			}
		}
		if d.Retry != nil {
			if d.Retry.MaxRetries < 1 {
				return nil, fmt.Errorf("workflow %s: retry step %q bound %d would be an unbounded loop; retries need a positive bound", name, d.Step, d.Retry.MaxRetries)
			}
			if d.Retry.MaxRetries > MaxRetryBound {
				return nil, fmt.Errorf("workflow %s: retry step %q bound %d exceeds the limit %d", name, d.Step, d.Retry.MaxRetries, MaxRetryBound)
			}
			if d.Retry.FailureProb < 0 || d.Retry.FailureProb >= 1 {
				return nil, fmt.Errorf("workflow %s: retry step %q failure probability %v outside [0, 1)", name, d.Step, d.Retry.FailureProb)
			}
		}
		dyn[d.Step] = d.clone()
	}
	// One decision per group happens at the group's readiness instant;
	// an await member would drag every co-member's decision behind its
	// trigger, so await steps must be alone in their group. Map widths
	// key the shape-variant hint tables, so at most one map per group
	// keeps the (group, resolved-shape) key a single width.
	for _, g := range w.DecisionGroups() {
		maps := 0
		for _, n := range g.Nodes {
			d, ok := dyn[n.Name]
			if !ok {
				continue
			}
			if d.Await && len(g.Nodes) > 1 {
				return nil, fmt.Errorf("workflow %s: await step %q shares a decision group with %d other node(s); await steps must form a singleton group", name, n.Name, len(g.Nodes)-1)
			}
			if d.Map != nil {
				maps++
				if maps > 1 {
					return nil, fmt.Errorf("workflow %s: decision group of %q has more than one map step", name, n.Name)
				}
			}
		}
	}
	w.dyn = dyn
	w.dynSteps = make([]string, 0, len(dyn))
	for _, idx := range w.order {
		if _, ok := dyn[w.nodes[idx].Name]; ok {
			w.dynSteps = append(w.dynSteps, w.nodes[idx].Name)
		}
	}
	return w, nil
}

// IsDynamic reports whether the workflow carries dynamic annotations.
func (w *Workflow) IsDynamic() bool { return len(w.dyn) > 0 }

// Dynamic returns the dynamic annotation for a step, if any.
func (w *Workflow) Dynamic(step string) (DynamicNode, bool) {
	d, ok := w.dyn[step]
	if !ok {
		return DynamicNode{}, false
	}
	return d.clone(), true
}

// DynamicSteps returns the annotated step names in topological order, nil
// for a static workflow. NewDynamic computes the order once; the slice is
// shared, and the caller must not mutate it.
func (w *Workflow) DynamicSteps() []string { return w.dynSteps }

// ShapeKey names the resolved shape of a map group whose map member runs
// at the given width: the key of its shape-variant profile and hints
// table.
func ShapeKey(width int) string { return "w=" + strconv.Itoa(width) }

// MapWidth reports the declared maximum fan-out width of a step: the
// MapSpec bound for map steps, 1 otherwise. Profiling and synthesis use
// this as the conservative width for unresolved futures.
func (w *Workflow) MapWidth(step string) int {
	if d, ok := w.dyn[step]; ok && d.Map != nil {
		return d.Map.MaxWidth
	}
	return 1
}
