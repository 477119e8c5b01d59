package profile

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"janus/internal/chunk"
	"janus/internal/perfmodel"
	"janus/internal/rng"
	"janus/internal/stats"
	"janus/internal/workflow"
)

// This file keeps the three Monte-Carlo loops profileGroup replaced — one
// per chain function, one per fork, one per map group, each with its own
// walk over the workflow — as the oracle TestProfilePassMatchesReference
// compares the single pass against. They read the profiler's fields
// exactly as they did, with the grid and percentiles at their defaults.

// RefProfileWorkflow is the reference walk: chains per function,
// dynamic workflows through refProfileDynamic, every other DAG per group.
func RefProfileWorkflow(p *Profiler, w *workflow.Workflow, batch int) (*Set, error) {
	if w == nil {
		return nil, fmt.Errorf("profile: nil workflow")
	}
	set := &Set{Workflow: w, Batch: batch}
	if w.IsDynamic() {
		return refProfileDynamic(p, set, w, batch)
	}
	if w.IsChain() {
		for _, n := range w.TopoOrder() {
			fp, err := refProfileFunction(p, n.Function, batch)
			if err != nil {
				return nil, err
			}
			set.Profiles = append(set.Profiles, fp)
		}
		return set, nil
	}
	for i, g := range w.DecisionGroups() {
		fp, err := refProfileGroup(p, g, batch)
		if err != nil {
			return nil, fmt.Errorf("profile: group %d: %w", i, err)
		}
		set.Profiles = append(set.Profiles, fp)
	}
	return set, nil
}

func refProfileDynamic(p *Profiler, set *Set, w *workflow.Workflow, batch int) (*Set, error) {
	for i, g := range w.DecisionGroups() {
		mapStep, maxWidth := "", 1
		for _, n := range g.Nodes {
			if d, ok := w.Dynamic(n.Name); ok && d.Map != nil {
				mapStep, maxWidth = n.Name, d.Map.MaxWidth
			}
		}
		if maxWidth <= 1 {
			fp, err := refProfileGroup(p, g, batch)
			if err != nil {
				return nil, fmt.Errorf("profile: group %d: %w", i, err)
			}
			set.Profiles = append(set.Profiles, fp)
			continue
		}
		variants, err := refProfileGroupMap(p, g, mapStep, maxWidth, batch)
		if err != nil {
			return nil, fmt.Errorf("profile: group %d: %w", i, err)
		}
		set.Profiles = append(set.Profiles, variants[maxWidth-1])
		if set.Shaped == nil {
			set.Shaped = map[int]map[string]*FunctionProfile{}
		}
		shapes := make(map[string]*FunctionProfile, maxWidth)
		for v := 1; v <= maxWidth; v++ {
			shapes[workflow.ShapeKey(v)] = variants[v-1]
		}
		set.Shaped[i] = shapes
	}
	return set, nil
}

// refEachLevel calls level(ki, k, stream) for every grid level with the
// stream split from prefix + "/k<k>", on the profiler's workers.
func refEachLevel(p *Profiler, prefix string, level func(ki, k int, stream *rng.Stream)) {
	root := rng.New(p.Seed)
	levels := DefaultGrid().Levels()
	chunk.Run(len(levels), 1, p.workers, func(lo, hi int) {
		stream := new(rng.Stream)
		for ki := lo; ki < hi; ki++ {
			root.SplitInto(stream, prefix+"/k"+strconv.Itoa(levels[ki]))
			level(ki, levels[ki], stream)
		}
	})
}

// refProfileFunction measures one function, keeping its raw samples.
func refProfileFunction(p *Profiler, name string, batch int) (*FunctionProfile, error) {
	fn, ok := p.Functions[name]
	if !ok {
		return nil, fmt.Errorf("profile: unknown function %q", name)
	}
	if !fn.SupportsBatch(batch) {
		return nil, fmt.Errorf("profile: function %s does not support batch %d", name, batch)
	}
	if p.SamplesPerConfig < 100 {
		return nil, fmt.Errorf("profile: need at least 100 samples per config, have %d", p.SamplesPerConfig)
	}
	grid, pcts := DefaultGrid(), DefaultPercentiles()
	levels := grid.Levels()
	fp := &FunctionProfile{
		Function:    name,
		Batch:       batch,
		Grid:        grid,
		Percentiles: append([]int(nil), pcts...),
		LatencyMs:   make([][]int, len(pcts)),
		samples:     make([]*stats.Sample, len(levels)),
	}
	for i := range fp.LatencyMs {
		fp.LatencyMs[i] = make([]int, len(levels))
	}
	refEachLevel(p, fmt.Sprintf("profile/%s/b%d", name, batch), func(ki, k int, stream *rng.Stream) {
		sample := stats.NewSample(make([]float64, 0, p.SamplesPerConfig))
		for i := 0; i < p.SamplesPerConfig; i++ {
			coloc := p.Colocation.Sample(stream)
			draw := fn.NewDraw(stream, batch, coloc, p.Interference)
			sample.AddDuration(fn.Latency(draw, batch, k))
		}
		fp.samples[ki] = sample
		for pi, pct := range pcts {
			ms := sample.Percentile(float64(pct))
			fp.LatencyMs[pi][ki] = int(ms) + 1
		}
	})
	if err := fp.init(); err != nil {
		return nil, err
	}
	enforceMonotone(fp)
	return fp, nil
}

// refProfileGroupMap measures a map group's width variants 1..maxWidth:
// the non-map members once per draw, then maxWidth map replicas.
func refProfileGroupMap(p *Profiler, g workflow.Group, mapStep string, maxWidth, batch int) ([]*FunctionProfile, error) {
	if maxWidth < 1 {
		return nil, fmt.Errorf("profile: map width %d invalid", maxWidth)
	}
	if p.SamplesPerConfig < 100 {
		return nil, fmt.Errorf("profile: need at least 100 samples per config, have %d", p.SamplesPerConfig)
	}
	var mapFn *perfmodel.Function
	others := make([]*perfmodel.Function, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		fn, ok := p.Functions[n.Function]
		if !ok {
			return nil, fmt.Errorf("profile: unknown function %q", n.Function)
		}
		if !fn.SupportsBatch(batch) {
			return nil, fmt.Errorf("profile: function %s does not support batch %d", n.Function, batch)
		}
		if n.Name == mapStep {
			mapFn = fn
			continue
		}
		others = append(others, fn)
	}
	if mapFn == nil {
		return nil, fmt.Errorf("profile: map step %q not in group", mapStep)
	}
	grid, pcts := DefaultGrid(), DefaultPercentiles()
	name := GroupProfileName(g.Nodes)
	levels := grid.Levels()
	lat := make([][][]int, maxWidth)
	for v := range lat {
		lat[v] = make([][]int, len(pcts))
		for pi := range lat[v] {
			lat[v][pi] = make([]int, len(levels))
		}
	}
	refEachLevel(p, fmt.Sprintf("mapshape/%s/%s/b%d", name, mapStep, batch), func(ki, k int, stream *rng.Stream) {
		samples := make([]*stats.Sample, maxWidth)
		for v := range samples {
			samples[v] = stats.NewSample(make([]float64, 0, p.SamplesPerConfig))
		}
		for i := 0; i < p.SamplesPerConfig; i++ {
			var worst time.Duration
			for _, fn := range others {
				coloc := p.Colocation.Sample(stream)
				d := fn.NewDraw(stream, batch, coloc, p.Interference)
				if l := fn.Latency(d, batch, k); l > worst {
					worst = l
				}
			}
			for v := 0; v < maxWidth; v++ {
				coloc := p.Colocation.Sample(stream)
				d := mapFn.NewDraw(stream, batch, coloc, p.Interference)
				if l := mapFn.Latency(d, batch, k); l > worst {
					worst = l
				}
				samples[v].AddDuration(worst)
			}
		}
		for v := 0; v < maxWidth; v++ {
			for pi, pct := range pcts {
				lat[v][pi][ki] = int(samples[v].Percentile(float64(pct))) + 1
			}
		}
	})
	out := make([]*FunctionProfile, maxWidth)
	for v := 0; v < maxWidth; v++ {
		fp, err := NewFunctionProfile(fmt.Sprintf("%s@w=%d", name, v+1), batch, grid, pcts, lat[v])
		if err != nil {
			return nil, err
		}
		enforceMonotone(fp)
		out[v] = fp
	}
	return out, nil
}

// refProfileGroup measures a group's max-over-members composite.
func refProfileGroup(p *Profiler, g workflow.Group, batch int) (*FunctionProfile, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("profile: empty decision group")
	}
	if p.SamplesPerConfig < 100 {
		return nil, fmt.Errorf("profile: need at least 100 samples per config, have %d", p.SamplesPerConfig)
	}
	fns := make([]*perfmodel.Function, len(g.Nodes))
	for i, n := range g.Nodes {
		fn, ok := p.Functions[n.Function]
		if !ok {
			return nil, fmt.Errorf("profile: unknown function %q", n.Function)
		}
		if !fn.SupportsBatch(batch) {
			return nil, fmt.Errorf("profile: function %s does not support batch %d", n.Function, batch)
		}
		fns[i] = fn
	}
	grid, pcts := DefaultGrid(), DefaultPercentiles()
	name := GroupProfileName(g.Nodes)
	levels := grid.Levels()
	lat := make([][]int, len(pcts))
	for i := range lat {
		lat[i] = make([]int, len(levels))
	}
	refEachLevel(p, fmt.Sprintf("parallel/%s/b%d", name, batch), func(ki, k int, stream *rng.Stream) {
		sample := stats.NewSample(make([]float64, 0, p.SamplesPerConfig))
		for i := 0; i < p.SamplesPerConfig; i++ {
			var worst time.Duration
			for _, fn := range fns {
				coloc := p.Colocation.Sample(stream)
				d := fn.NewDraw(stream, batch, coloc, p.Interference)
				if l := fn.Latency(d, batch, k); l > worst {
					worst = l
				}
			}
			sample.AddDuration(worst)
		}
		for pi, pct := range pcts {
			lat[pi][ki] = int(sample.Percentile(float64(pct))) + 1
		}
	})
	fp, err := NewFunctionProfile(name, batch, grid, pcts, lat)
	if err != nil {
		return nil, err
	}
	enforceMonotone(fp)
	return fp, nil
}

// TestProfilePassErrorsMatchReference pins the pass's diagnostics to the
// reference loops' for an unknown function, an unsupported batch, an
// empty group and too few samples: through ProfileWorkflow for a chain
// and a fork, and through the pass itself for the group that no
// workflow can produce.
func TestProfilePassErrorsMatchReference(t *testing.T) {
	chain := func(fns ...string) *workflow.Workflow {
		t.Helper()
		w, err := workflow.NewChain("c", time.Second, fns...)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	fork := func(fns ...string) *workflow.Workflow {
		t.Helper()
		w, err := workflow.NewSeriesParallel("f", time.Second, [][]string{fns})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, tc := range []struct {
		name    string
		w       *workflow.Workflow
		batch   int
		samples int
		want    string
	}{
		{"chain unknown function", chain("od", "nope"), 1, 300, `profile: unknown function "nope"`},
		{"fork unknown function", fork("qa", "nope"), 1, 300, `profile: group 0: profile: unknown function "nope"`},
		{"chain unsupported batch", chain("ts", "fe"), 2, 300, "profile: function fe does not support batch 2"},
		{"fork unsupported batch", fork("ts", "fe"), 2, 300, "profile: group 0: profile: function fe does not support batch 2"},
		{"chain too few samples", chain("od"), 1, 99, "profile: need at least 100 samples per config, have 99"},
		{"fork too few samples", fork("qa", "ts"), 1, 10, "profile: group 0: profile: need at least 100 samples per config, have 10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testProfiler(t)
			p.SamplesPerConfig = tc.samples
			_, err := p.ProfileWorkflow(tc.w, tc.batch)
			_, refErr := RefProfileWorkflow(p, tc.w, tc.batch)
			if err == nil || refErr == nil || err.Error() != refErr.Error() || err.Error() != tc.want {
				t.Fatalf("error %v, reference %v, want %q", err, refErr, tc.want)
			}
		})
	}
	p := testProfiler(t)
	_, err := p.profileGroup(workflow.Group{}, -1, 1, 1, "parallel", false)
	_, refErr := refProfileGroup(p, workflow.Group{}, 1)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("empty group: error %v, reference %v", err, refErr)
	}
}
