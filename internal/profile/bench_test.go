package profile

import (
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

// BenchmarkProfileGroup profiles one two-member decision group (the fork
// {icl, ico} of a fan-out DAG) across the default 21-level grid at the
// 2000 samples per level the experiments and the benchmark use: one op
// is one group profile, 84,000 latency draws. Profiling is the largest
// set-up layer once synthesis is cheap; allocs/op scales with grid
// levels (a stream, a sample and its growth per level), not with draws,
// and the bench guard pins it.
func BenchmarkProfileGroup(b *testing.B) {
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 7)
	if err != nil {
		b.Fatal(err)
	}
	nodes := []workflow.Node{{Name: "pre", Function: "fe"}, {Name: "detect", Function: "icl"}, {Name: "classify", Function: "ico"}}
	w, err := workflow.New("fork", time.Second, nodes, [][2]string{{"pre", "detect"}, {"pre", "classify"}})
	if err != nil {
		b.Fatal(err)
	}
	fork := w.DecisionGroups()[1]
	if len(fork.Nodes) != 2 {
		b.Fatalf("fork group has %d members, want 2", len(fork.Nodes))
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.profileGroup(fork, 1, 1, 1, "parallel", false); err != nil {
			b.Fatal(err)
		}
	}
}
