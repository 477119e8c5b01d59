package profile

import (
	"fmt"
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

// dynWorkflow builds the dynamic ML-inference skeleton the trigger
// experiment serves: a conditional fork at triage, a bounded map with
// retry on ocr, and an awaited gate.
func dynWorkflow(t *testing.T) *workflow.Workflow {
	t.Helper()
	nodes := []workflow.Node{
		{Name: "ingest", Function: "fe"},
		{Name: "triage", Function: "ico"},
		{Name: "caption", Function: "redis-read"},
		{Name: "detect", Function: "icl"},
		{Name: "ocr", Function: "aes-encrypt"},
		{Name: "gate", Function: "redis-read"},
		{Name: "publish", Function: "socket-comm"},
	}
	edges := [][2]string{
		{"ingest", "triage"},
		{"triage", "caption"},
		{"triage", "detect"},
		{"detect", "ocr"},
		{"caption", "gate"},
		{"ocr", "gate"},
		{"gate", "publish"},
	}
	w, err := workflow.NewDynamic("trig", 1500*time.Millisecond, nodes, edges, []workflow.DynamicNode{
		{Step: "triage", Choice: &workflow.ChoiceSpec{Weights: []float64{0.55, 0.45}}},
		{Step: "ocr", Map: &workflow.MapSpec{MaxWidth: 4}, Retry: &workflow.RetrySpec{MaxRetries: 2, FailureProb: 0.3}},
		{Step: "gate", Await: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func dynProfiler(t *testing.T) *Profiler {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 11)
	if err != nil {
		t.Fatal(err)
	}
	p.SamplesPerConfig = 400
	return p
}

// mapGroup locates the decision group holding the given step.
func mapGroup(t *testing.T, w *workflow.Workflow, step string) int {
	t.Helper()
	for i, g := range w.DecisionGroups() {
		for _, n := range g.Nodes {
			if n.Name == step {
				return i
			}
		}
	}
	t.Fatalf("step %q not in any group", step)
	return -1
}

func TestProfileDynamicShapedVariants(t *testing.T) {
	w := dynWorkflow(t)
	set, err := dynProfiler(t).ProfileWorkflow(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != len(w.DecisionGroups()) {
		t.Fatalf("profiled %d groups, workflow has %d", set.Len(), len(w.DecisionGroups()))
	}
	og := mapGroup(t, w, "ocr")
	if len(set.Shaped) != 1 || set.Shaped[og] == nil {
		t.Fatalf("Shaped = %v, want variants for group %d only", set.Shaped, og)
	}
	variants := set.Shaped[og]
	if len(variants) != 4 {
		t.Fatalf("map with MaxWidth 4 produced %d variants", len(variants))
	}
	// The conservative base IS the max-width variant.
	if set.At(og) != variants["w=4"] {
		t.Fatal("base profile of the map group is not the max-width variant")
	}
	// Join latency is monotone in the resolved width: a prefix max over
	// fewer replicas can only be faster, at every (percentile, k) cell.
	for v := 1; v < 4; v++ {
		lo, hi := variants[fmt.Sprintf("w=%d", v)], variants[fmt.Sprintf("w=%d", v+1)]
		for pi := range lo.LatencyMs {
			for ki := range lo.LatencyMs[pi] {
				if lo.LatencyMs[pi][ki] > hi.LatencyMs[pi][ki] {
					t.Fatalf("width %d slower than width %d at cell (%d, %d)", v, v+1, pi, ki)
				}
			}
		}
	}
	// And strictly informative somewhere: resolving w=1 must buy real
	// headroom over the worst case at the P99/Kmin corner.
	w1, w4 := variants["w=1"], variants["w=4"]
	if w1.LMs(99, w1.Grid.Min) >= w4.LMs(99, w4.Grid.Min) {
		t.Fatal("width-1 variant no faster than the worst case at P99/Kmin")
	}
}

// TestProfileStaticSetHasNoShapes pins that a static workflow's set
// carries no Shaped map.
func TestProfileStaticSetHasNoShapes(t *testing.T) {
	nodes := []workflow.Node{
		{Name: "a", Function: "fe"},
		{Name: "b", Function: "ico"},
		{Name: "c", Function: "icl"},
	}
	edges := [][2]string{{"a", "b"}, {"a", "c"}}
	w, err := workflow.New("static", time.Second, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	p := dynProfiler(t)
	set, err := p.ProfileWorkflow(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Shaped != nil {
		t.Fatalf("static workflow produced shaped profiles: %v", set.Shaped)
	}
}
