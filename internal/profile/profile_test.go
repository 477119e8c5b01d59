package profile

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

func testProfiler(t *testing.T) *Profiler {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p.SamplesPerConfig = 600 // keep unit tests fast
	return p
}

// profileFunction profiles one function the way a static chain's groups
// are profiled: under its "profile/" stream, raw samples kept.
func profileFunction(p *Profiler, name string, batch int) (*FunctionProfile, error) {
	g := workflow.Group{Nodes: []workflow.Node{{Name: name, Function: name}}}
	fps, err := p.profileGroup(g, 0, 1, batch, "profile", true)
	if err != nil {
		return nil, err
	}
	return fps[0], nil
}

func TestGridBasics(t *testing.T) {
	g := DefaultGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	levels := g.Levels()
	if len(levels) != 21 || levels[0] != 1000 || levels[20] != 3000 {
		t.Fatalf("levels = %v", levels)
	}
	if g.Len() != 21 {
		t.Fatalf("Len = %d", g.Len())
	}
	if i, ok := g.Index(1500); !ok || i != 5 {
		t.Fatalf("Index(1500) = %d, %v", i, ok)
	}
	if _, ok := g.Index(1550); ok {
		t.Fatal("off-grid index accepted")
	}
	if _, ok := g.Index(900); ok {
		t.Fatal("below-grid index accepted")
	}
}

func TestGridValidation(t *testing.T) {
	bad := []Grid{
		{Min: 0, Max: 100, Step: 10},
		{Min: 100, Max: 50, Step: 10},
		{Min: 100, Max: 200, Step: 0},
		{Min: 100, Max: 250, Step: 100}, // max unreachable
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %+v accepted", g)
		}
	}
}

func TestDefaultPercentiles(t *testing.T) {
	ps := DefaultPercentiles()
	if ps[0] != 1 || ps[len(ps)-1] != 99 {
		t.Fatalf("percentiles = %v", ps)
	}
	if err := validatePercentiles(ps); err != nil {
		t.Fatal(err)
	}
	// 1, 5..95 step 5, 99 -> 21 entries.
	if len(ps) != 21 {
		t.Fatalf("%d percentiles, want 21", len(ps))
	}
}

func TestValidatePercentiles(t *testing.T) {
	cases := [][]int{
		{},          // empty
		{0, 99},     // below range
		{1, 100},    // above range
		{5, 5, 99},  // not strictly increasing
		{99, 1},     // decreasing
		{1, 50, 95}, // missing 99
	}
	for _, ps := range cases {
		if err := validatePercentiles(ps); err == nil {
			t.Errorf("percentiles %v accepted", ps)
		}
	}
	if err := validatePercentiles([]int{1, 50, 99}); err != nil {
		t.Errorf("valid percentiles rejected: %v", err)
	}
}

func TestProfileFunctionShape(t *testing.T) {
	p := testProfiler(t)
	fp, err := profileFunction(p, "od", 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Function != "od" || fp.Batch != 1 {
		t.Fatalf("profile header = %s/%d", fp.Function, fp.Batch)
	}
	if len(fp.LatencyMs) != len(fp.Percentiles) {
		t.Fatal("row count mismatch")
	}
	// Monotone in k: more cores never slower.
	for _, pct := range fp.Percentiles {
		prev := int(1 << 30)
		for _, k := range fp.Grid.Levels() {
			cur := fp.LMs(pct, k)
			if cur > prev {
				t.Fatalf("L(%d, %d) = %d increased from %d", pct, k, cur, prev)
			}
			prev = cur
		}
	}
	// Monotone in p: higher percentile never faster.
	for _, k := range fp.Grid.Levels() {
		prev := 0
		for _, pct := range fp.Percentiles {
			cur := fp.LMs(pct, k)
			if cur < prev {
				t.Fatalf("L(%d, %d) = %d decreased from %d", pct, k, cur, prev)
			}
			prev = cur
		}
	}
}

func TestTimeoutProperties(t *testing.T) {
	p := testProfiler(t)
	fp, err := profileFunction(p, "ts", 1)
	if err != nil {
		t.Fatal(err)
	}
	// D(99, k) == 0; D decreases as p rises (Fig 7a).
	for _, k := range []int{1000, 2000, 3000} {
		if d := fp.TimeoutMs(99, k); d != 0 {
			t.Errorf("D(99, %d) = %d, want 0", k, d)
		}
		if fp.TimeoutMs(25, k) < fp.TimeoutMs(50, k) || fp.TimeoutMs(50, k) < fp.TimeoutMs(75, k) {
			t.Errorf("timeout at k=%d not decreasing in percentile", k)
		}
	}
	// D decreases as k rises (Fig 7a: more resources absorb variability).
	if fp.TimeoutMs(25, 1000) < fp.TimeoutMs(25, 3000) {
		t.Error("timeout should shrink with more cores")
	}
}

// TestPercentileLookupOffGrid pins the percentile lookup's edges: every
// profiled percentile resolves to its own row, and any other value —
// unprofiled, or outside [1, 99] — has no row and panics in LMs with the
// profile's name, as does an off-grid allocation.
func TestPercentileLookupOffGrid(t *testing.T) {
	grid := Grid{Min: 1000, Max: 1200, Step: 100}
	fp, err := NewFunctionProfile("f", 1, grid, []int{1, 50, 99}, [][]int{{10, 9, 8}, {20, 19, 18}, {30, 29, 28}})
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range fp.Percentiles {
		if row, ok := fp.row(p); !ok || row != pi {
			t.Errorf("row(%d) = %d, %v for a profiled percentile", p, row, ok)
		}
		if got, want := fp.LMs(p, 1100), fp.LatencyMs[pi][1]; got != want {
			t.Errorf("LMs(%d, 1100) = %d, want %d", p, got, want)
		}
	}
	panicsWith := func(want string, call func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if r := recover(); r != want {
				t.Errorf("panic %v, want %q", r, want)
			}
		}()
		call()
	}
	for _, p := range []int{-1, 0, 2, 49, 98, 100, 255, 1 << 20} {
		if _, ok := fp.row(p); ok {
			t.Errorf("row(%d) found off the grid", p)
		}
		panicsWith(fmt.Sprintf("profile: f: percentile %d not profiled", p), func() { fp.LMs(p, 1000) })
	}
	panicsWith("profile: f: allocation 1050 not on grid", func() { fp.LMs(50, 1050) })
}

func TestResilienceProperties(t *testing.T) {
	p := testProfiler(t)
	fp, err := profileFunction(p, "ts", 1)
	if err != nil {
		t.Fatal(err)
	}
	// R(p, Kmax) == 0; R decreases with k (Fig 7b).
	for _, pct := range []int{25, 50, 99} {
		if r := fp.ResilienceMs(pct, 3000); r != 0 {
			t.Errorf("R(%d, Kmax) = %d, want 0", pct, r)
		}
		prev := int(1 << 30)
		for _, k := range fp.Grid.Levels() {
			r := fp.ResilienceMs(pct, k)
			if r < 0 {
				t.Fatalf("negative resilience R(%d, %d) = %d", pct, k, r)
			}
			if r > prev {
				t.Fatalf("resilience increased with cores at k=%d", k)
			}
			prev = r
		}
	}
}

func TestResilienceGrowsWithConcurrency(t *testing.T) {
	// Fig 7b: higher concurrency means higher computing load, making the
	// function more sensitive to resources, hence more resilience.
	p := testProfiler(t)
	fp1, err := profileFunction(p, "ts", 1)
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := profileFunction(p, "ts", 3)
	if err != nil {
		t.Fatal(err)
	}
	if fp3.ResilienceMs(99, 1000) <= fp1.ResilienceMs(99, 1000) {
		t.Errorf("resilience at conc 3 (%d ms) should exceed conc 1 (%d ms)",
			fp3.ResilienceMs(99, 1000), fp1.ResilienceMs(99, 1000))
	}
}

func TestMinCoresWithin(t *testing.T) {
	p := testProfiler(t)
	fp, err := profileFunction(p, "qa", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A generous budget needs only the minimum allocation.
	if k, ok := fp.MinCoresWithin(99, 10*time.Second); !ok || k != 1000 {
		t.Fatalf("generous budget -> (%d, %v), want (1000, true)", k, ok)
	}
	// An impossible budget is infeasible even at Kmax.
	if _, ok := fp.MinCoresWithin(99, time.Millisecond); ok {
		t.Fatal("1ms budget should be infeasible")
	}
	// Feasibility boundary is consistent with L.
	budget := fp.L(99, 2000)
	k, ok := fp.MinCoresWithin(99, budget)
	if !ok || k > 2000 {
		t.Fatalf("budget L(99,2000) -> (%d, %v), want k <= 2000", k, ok)
	}
}

func TestProfileDeterminism(t *testing.T) {
	p := testProfiler(t)
	a, err := profileFunction(p, "od", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := profileFunction(p, "od", 1)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range a.LatencyMs {
		for ki := range a.LatencyMs[pi] {
			if a.LatencyMs[pi][ki] != b.LatencyMs[pi][ki] {
				t.Fatal("profiles differ across identical runs")
			}
		}
	}
}

func TestProfilerValidation(t *testing.T) {
	coloc, _ := interfere.NewCountSampler([]float64{1})
	if _, err := NewProfiler(nil, coloc, nil, 1); err == nil {
		t.Error("nil functions accepted")
	}
	if _, err := NewProfiler(perfmodel.Catalog(), nil, nil, 1); err == nil {
		t.Error("nil colocation accepted")
	}
	p := testProfiler(t)
	if _, err := profileFunction(p, "nope", 1); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := profileFunction(p, "fe", 2); err == nil {
		t.Error("unsupported batch accepted")
	}
	p.SamplesPerConfig = 10
	if _, err := profileFunction(p, "od", 1); err == nil {
		t.Error("tiny sample count accepted")
	}
}

func TestProfileWorkflow(t *testing.T) {
	p := testProfiler(t)
	set, err := p.ProfileWorkflow(workflow.IntelligentAssistant(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("set has %d profiles", set.Len())
	}
	if set.At(0).Function != "od" || set.At(2).Function != "ts" {
		t.Fatal("profiles out of order")
	}
	tmin, tmax := set.BudgetRangeMs(0)
	if tmin <= 0 || tmax <= tmin {
		t.Fatalf("budget range = [%d, %d]", tmin, tmax)
	}
	// Suffix ranges shrink as functions complete.
	tmin1, tmax1 := set.BudgetRangeMs(1)
	if tmin1 >= tmin || tmax1 >= tmax {
		t.Fatal("suffix budget range should shrink")
	}
}

func TestProfileWorkflowNonChain(t *testing.T) {
	p := testProfiler(t)
	nodes := []workflow.Node{{Name: "a", Function: "od"}, {Name: "b", Function: "qa"}, {Name: "c", Function: "ts"}}
	dag, err := workflow.New("fan", time.Second, nodes, [][2]string{{"a", "b"}, {"a", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	// Non-chain DAGs profile per decision group: the fork {b, c} becomes
	// one max-over-members composite whose latency dominates each member.
	set, err := p.ProfileWorkflow(dag, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("set has %d profiles, want 2 groups", set.Len())
	}
	if set.At(0).Function != "od" || set.At(1).Function != "par(2)+qa+ts" {
		t.Fatalf("group profiles = %q, %q", set.At(0).Function, set.At(1).Function)
	}
	qa, err := profileFunction(p, "qa", 1)
	if err != nil {
		t.Fatal(err)
	}
	if comp, solo := set.At(1).LMs(99, 1000), qa.LMs(99, 1000); comp < solo {
		t.Fatalf("composite P99 %dms below member P99 %dms", comp, solo)
	}
	// The composite retains no raw samples (the ORION gate).
	if set.At(1).Sample(1000) != nil {
		t.Fatal("composite profile should not retain samples")
	}
}

func TestSampleAccess(t *testing.T) {
	p := testProfiler(t)
	fp, err := profileFunction(p, "od", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := fp.Sample(2000)
	if s == nil || s.Len() != p.SamplesPerConfig {
		t.Fatal("raw sample missing")
	}
	if fp.Sample(2050) != nil {
		t.Fatal("off-grid sample should be nil")
	}
}

func TestFunctionProfileJSONRoundTrip(t *testing.T) {
	p := testProfiler(t)
	fp, err := profileFunction(p, "qa", 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	var back FunctionProfile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.init(); err != nil {
		t.Fatal(err)
	}
	if back.Function != "qa" || back.Batch != 2 {
		t.Fatal("header lost")
	}
	if back.LMs(99, 1500) != fp.LMs(99, 1500) {
		t.Fatal("latency lost")
	}
	if back.Sample(1500) != nil {
		t.Fatal("samples should not round-trip")
	}
}

// TestSetJSONRoundTrip round-trips the va chain and a dynamic workflow
// with a map step: the parsed set must carry every profile and shape
// variant and re-marshal to the same bytes, and the static set's wire
// form must carry no shapes at all.
func TestSetJSONRoundTrip(t *testing.T) {
	p := testProfiler(t)
	for _, w := range []*workflow.Workflow{workflow.VideoAnalyze(), dynWorkflow(t)} {
		set, err := p.ProfileWorkflow(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSet(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Workflow.Name() != w.Name() || back.Len() != set.Len() {
			t.Fatalf("%s: set header lost", w.Name())
		}
		for i := range set.Profiles {
			if !reflect.DeepEqual(back.At(i).LatencyMs, set.At(i).LatencyMs) || back.At(i).Function != set.At(i).Function {
				t.Fatalf("%s: group %d profile lost", w.Name(), i)
			}
		}
		if !reflect.DeepEqual(back.Shaped, set.Shaped) {
			t.Fatalf("%s: shape variants lost", w.Name())
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("%s: re-marshaled set differs", w.Name())
		}
		if w.IsDynamic() != strings.Contains(string(data), `"shaped"`) {
			t.Fatalf("%s: dynamic %v but wire form shaped %v", w.Name(), w.IsDynamic(), !w.IsDynamic())
		}
	}
}

// TestParseSetRejectsMismatchedProfiles pins that a set file whose
// profiles do not fit its workflow is rejected: bad JSON, a profile of
// inconsistent shape, profiles out of group order, a map group's base
// not named for its widest variant, and shape variants under a key or
// name its map cannot resolve to.
func TestParseSetRejectsMismatchedProfiles(t *testing.T) {
	if _, err := ParseSet([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
	bad := `{"workflow":{"name":"w","slo_ms":1000,"functions":[{"name":"f","function":"f"}]},"batch":1,` +
		`"profiles":[{"function":"f","batch":1,"grid":{"Min":1000,"Max":3000,"Step":100},"percentiles":[1,99],"latency_ms":[[1]]}]}`
	if _, err := ParseSet([]byte(bad)); err == nil {
		t.Error("inconsistent profile shape accepted")
	}
	p := testProfiler(t)
	set, err := p.ProfileWorkflow(workflow.VideoAnalyze(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Swap two profiles: stage/function mismatch must be caught.
	set.Profiles[0], set.Profiles[1] = set.Profiles[1], set.Profiles[0]
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSet(data); err == nil {
		t.Error("mismatched profile order accepted")
	}
	w := dynWorkflow(t)
	og := mapGroup(t, w, "ocr")
	for name, mutate := range map[string]func(s *Set){
		"base named for a narrower width":  func(s *Set) { s.Profiles[og] = s.Shaped[og]["w=2"] },
		"variant under the wrong key":      func(s *Set) { s.Shaped[og]["w=3"] = s.Shaped[og]["w=1"] },
		"width beyond the map":             func(s *Set) { s.Shaped[og]["w=5"] = s.Shaped[og]["w=4"] },
		"non-canonical key":                func(s *Set) { s.Shaped[og]["w=04"] = s.Shaped[og]["w=4"] },
		"variants for a group with no map": func(s *Set) { s.Shaped[0] = s.Shaped[og] },
		"variants out of range":            func(s *Set) { s.Shaped[len(s.Profiles)] = s.Shaped[og] },
	} {
		set, err := p.ProfileWorkflow(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		mutate(set)
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSet(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// spProfiler matches the series-parallel tests' profiling setup: the
// contention mix and seed the fork-join workloads are calibrated against.
func spProfiler(t *testing.T) *Profiler {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	p.SamplesPerConfig = 1000
	return p
}

func TestProfileGroupCompositeDominatesBranches(t *testing.T) {
	p := spProfiler(t)
	group := func(fns ...string) *FunctionProfile {
		t.Helper()
		nodes := make([]workflow.Node, len(fns))
		for i, f := range fns {
			nodes[i] = workflow.Node{Name: f, Function: f}
		}
		fps, err := p.profileGroup(workflow.Group{Nodes: nodes}, len(nodes)-1, 1, 1, "parallel", false)
		if err != nil {
			t.Fatal(err)
		}
		return fps[0]
	}
	composite, qa, ts := group("qa", "ts"), group("qa"), group("ts")
	// max(QA, TS) stochastically dominates each branch. The estimates come
	// from independent Monte-Carlo paths, so compare with the sampling
	// tolerance appropriate to each percentile: tight at the median, loose
	// at the tail.
	tolerance := map[int]float64{50: 0.97, 99: 0.85}
	for _, pct := range []int{50, 99} {
		for _, k := range []int{1000, 2000, 3000} {
			floor := float64(max(qa.LMs(pct, k), ts.LMs(pct, k))) * tolerance[pct]
			if float64(composite.LMs(pct, k)) < floor {
				t.Errorf("composite L(%d,%d)=%d below dominated floor %.0f (qa %d, ts %d)",
					pct, k, composite.LMs(pct, k), floor, qa.LMs(pct, k), ts.LMs(pct, k))
			}
		}
	}
	if composite.Function != "par(2)+qa+ts" {
		t.Errorf("composite name %q", composite.Function)
	}
}

// TestSingleStageForkDAG is the regression test for the disconnected-node
// validation: a one-stage parallel workflow (a pure fork-join map) is a
// DAG with multiple nodes and zero edges, which must stay valid — all
// members form one decision group, join at completion, and profile as
// one composite.
func TestSingleStageForkDAG(t *testing.T) {
	dag, err := workflow.NewSeriesParallel("map", 2*time.Second, [][]string{{"qa", "ts"}})
	if err != nil {
		t.Fatalf("single-stage fork rejected: %v", err)
	}
	groups := dag.DecisionGroups()
	if len(groups) != 1 || len(groups[0].Nodes) != 2 {
		t.Fatalf("fork groups = %+v", groups)
	}
	set, err := spProfiler(t).ProfileWorkflow(dag, 1)
	if err != nil {
		t.Fatalf("single-stage fork profiling failed: %v", err)
	}
	if set.Len() != 1 || set.At(0).Function != "par(2)+qa+ts" {
		t.Fatalf("single-stage fork profiles = %d, first %q", set.Len(), set.At(0).Function)
	}
}
