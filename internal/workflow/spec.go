package workflow

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Spec is the JSON wire form of a workflow, in the spirit of the
// JSON-based structured languages (e.g. Amazon States Language) the paper
// mentions for defining applications with chaining, branching, and
// parallel execution. Dynamic node kinds (conditional branches, bounded
// maps, bounded retries, awaited steps) serialize through the Dynamic
// list, so a declarative catalog entry round-trips every workflow the
// engine can serve — static specs omit the field and stay byte-identical
// to the pre-dynamic wire form.
type Spec struct {
	// Name identifies the workflow.
	Name string `json:"name"`
	// SLOMillis is the end-to-end P99 latency objective in milliseconds.
	SLOMillis int64 `json:"slo_ms"`
	// Nodes lists the steps.
	Nodes []Node `json:"functions"`
	// Edges lists (from, to) step-name pairs.
	Edges [][2]string `json:"edges,omitempty"`
	// Dynamic lists per-step dynamic annotations (see DynamicNode).
	Dynamic []DynamicSpec `json:"dynamic,omitempty"`
}

// DynamicSpec is the wire form of one step's DynamicNode annotation.
type DynamicSpec struct {
	// Step names the skeleton node the annotation applies to.
	Step string `json:"step"`
	// Choice marks the step as a conditional branch.
	Choice *ChoiceSpec `json:"choice,omitempty"`
	// Map marks the step as a bounded data-dependent map.
	Map *MapSpec `json:"map,omitempty"`
	// Retry marks the step as a bounded retry loop.
	Retry *RetrySpec `json:"retry,omitempty"`
	// Await parks the step until an external trigger fires.
	Await bool `json:"await,omitempty"`
}

// ParseSpec decodes and validates a JSON workflow definition.
func ParseSpec(data []byte) (*Workflow, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workflow: invalid spec JSON: %w", err)
	}
	return s.Build()
}

// maxSLOMillis is the largest slo_ms whose time.Duration does not
// overflow.
const maxSLOMillis = math.MaxInt64 / int64(time.Millisecond)

// Build validates the spec and constructs the workflow.
func (s *Spec) Build() (*Workflow, error) {
	if s.SLOMillis <= 0 || s.SLOMillis > maxSLOMillis {
		return nil, fmt.Errorf("workflow %s: slo_ms %d outside [1, %d]", s.Name, s.SLOMillis, maxSLOMillis)
	}
	slo := time.Duration(s.SLOMillis) * time.Millisecond
	if len(s.Dynamic) == 0 {
		return New(s.Name, slo, s.Nodes, s.Edges)
	}
	dyn := make([]DynamicNode, len(s.Dynamic))
	for i, d := range s.Dynamic {
		dyn[i] = DynamicNode{Step: d.Step, Choice: d.Choice, Map: d.Map, Retry: d.Retry, Await: d.Await}
	}
	return NewDynamic(s.Name, slo, s.Nodes, s.Edges, dyn)
}

// ToSpec converts a workflow back to its wire form, dynamic annotations
// included, such that ToSpec().Build() reconstructs an equivalent
// workflow.
func (w *Workflow) ToSpec() Spec {
	edges := make([][2]string, 0)
	for _, n := range w.TopoOrder() {
		for _, next := range w.Successors(n.Name) {
			edges = append(edges, [2]string{n.Name, next})
		}
	}
	var dyn []DynamicSpec
	for _, step := range w.DynamicSteps() {
		d, _ := w.Dynamic(step)
		dyn = append(dyn, DynamicSpec{Step: step, Choice: d.Choice, Map: d.Map, Retry: d.Retry, Await: d.Await})
	}
	return Spec{
		Name:      w.name,
		SLOMillis: w.slo.Milliseconds(),
		Nodes:     w.Nodes(),
		Edges:     edges,
		Dynamic:   dyn,
	}
}

// MarshalJSON encodes the workflow as its Spec.
func (w *Workflow) MarshalJSON() ([]byte, error) {
	return json.Marshal(w.ToSpec())
}
