package baseline

import (
	"sync"
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/profile"
	"janus/internal/workflow"
)

var (
	setOnce sync.Once
	iaSet   *profile.Set
)

func iaProfiles(t *testing.T) *profile.Set {
	t.Helper()
	setOnce.Do(func() {
		coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
		if err != nil {
			t.Fatal(err)
		}
		p, err := profile.NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 13)
		if err != nil {
			t.Fatal(err)
		}
		p.SamplesPerConfig = 800
		set, err := p.ProfileWorkflow(workflow.IntelligentAssistant(), 1)
		if err != nil {
			t.Fatal(err)
		}
		iaSet = set
	})
	if iaSet == nil {
		t.Fatal("profiling failed earlier")
	}
	return iaSet
}

func totalCores(f *platform.Fixed) int {
	total := 0
	for _, k := range f.Sizes {
		total += k
	}
	return total
}

func TestGrandSLAMIdenticalSizesMeetSLO(t *testing.T) {
	set := iaProfiles(t)
	f, err := GrandSLAM(set, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sizes) != 3 {
		t.Fatalf("sizes = %v", f.Sizes)
	}
	k := f.Sizes[0]
	for _, s := range f.Sizes {
		if s != k {
			t.Fatalf("GrandSLAM sizes not identical: %v", f.Sizes)
		}
	}
	total := 0
	for i := 0; i < set.Len(); i++ {
		total += set.At(i).LMs(99, k)
	}
	if total > 3000 {
		t.Fatalf("P99 sum %dms exceeds SLO", total)
	}
	// Minimality: one step smaller must not fit.
	if k > 1000 {
		smaller := 0
		for i := 0; i < set.Len(); i++ {
			smaller += set.At(i).LMs(99, k-100)
		}
		if smaller <= 3000 {
			t.Fatalf("GrandSLAM size %d not minimal", k)
		}
	}
}

func TestGrandSLAMInfeasibleSLO(t *testing.T) {
	if _, err := GrandSLAM(iaProfiles(t), 100*time.Millisecond); err == nil {
		t.Fatal("infeasible SLO accepted")
	}
	if _, err := GrandSLAMPlus(iaProfiles(t), 100*time.Millisecond); err == nil {
		t.Fatal("infeasible SLO accepted")
	}
}

func TestGrandSLAMPlusAtMostGrandSLAM(t *testing.T) {
	set := iaProfiles(t)
	for _, slo := range []time.Duration{3 * time.Second, 4 * time.Second, 5 * time.Second} {
		gs, err := GrandSLAM(set, slo)
		if err != nil {
			t.Fatal(err)
		}
		gsp, err := GrandSLAMPlus(set, slo)
		if err != nil {
			t.Fatal(err)
		}
		if totalCores(gsp) > totalCores(gs) {
			t.Fatalf("SLO %v: GrandSLAM+ (%d) above GrandSLAM (%d)", slo, totalCores(gsp), totalCores(gs))
		}
		// The plan still meets the P99-sum constraint.
		total := 0
		for i, k := range gsp.Sizes {
			total += set.At(i).LMs(99, k)
		}
		if total > int(slo/time.Millisecond) {
			t.Fatalf("GrandSLAM+ plan misses SLO: %dms", total)
		}
	}
}

func TestGrandSLAMPlusMinimality(t *testing.T) {
	set := iaProfiles(t)
	gsp, err := GrandSLAMPlus(set, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// No single stage can shrink by one step and still fit.
	for j := range gsp.Sizes {
		if gsp.Sizes[j] <= 1000 {
			continue
		}
		total := 0
		for i, k := range gsp.Sizes {
			if i == j {
				k -= 100
			}
			total += set.At(i).LMs(99, k)
		}
		if total <= 3000 {
			t.Fatalf("stage %d could shrink: %v", j, gsp.Sizes)
		}
	}
}

func TestORIONCheaperThanGrandSLAMPlus(t *testing.T) {
	set := iaProfiles(t)
	gsp, err := GrandSLAMPlus(set, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	orion, err := ORION(set, 3*time.Second, ORIONConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if totalCores(orion) >= totalCores(gsp) {
		t.Fatalf("ORION (%d) not below GrandSLAM+ (%d): distribution-awareness buys nothing",
			totalCores(orion), totalCores(gsp))
	}
	if orion.System != "orion" {
		t.Fatalf("system name = %q", orion.System)
	}
}

func TestORIONDeterministic(t *testing.T) {
	set := iaProfiles(t)
	a, err := ORION(set, 3*time.Second, ORIONConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ORION(set, 3*time.Second, ORIONConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			t.Fatalf("ORION not deterministic: %v vs %v", a.Sizes, b.Sizes)
		}
	}
}

func TestORIONInfeasible(t *testing.T) {
	if _, err := ORION(iaProfiles(t), 100*time.Millisecond, ORIONConfig{}); err == nil {
		t.Fatal("infeasible SLO accepted")
	}
}

func iaRequests(t *testing.T, n int) []*platform.Request {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := platform.GenerateWorkload(platform.WorkloadConfig{
		Workflow:          workflow.IntelligentAssistant(),
		Functions:         perfmodel.Catalog(),
		N:                 n,
		Batch:             1,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		Seed:              21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestOptimalPlansMeetSLOAndAreMinimal(t *testing.T) {
	o, err := NewOptimal(workflow.IntelligentAssistant(), perfmodel.Catalog(), profile.DefaultGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fns := []*perfmodel.Function{
		perfmodel.ObjectDetection(), perfmodel.QuestionAnswering(), perfmodel.TextToSpeech(),
	}
	for _, req := range iaRequests(t, 200) {
		var plan [3]int
		total := 0
		for stage := 0; stage < 3; stage++ {
			k, hit := o.Allocate(req, stage, 0)
			if !hit {
				t.Fatal("oracle reported a miss")
			}
			plan[stage] = k
			total += k
		}
		// The plan's actual latency fits the SLO (or the request was
		// infeasible and the oracle sprints at Kmax).
		var latency time.Duration
		for stage, f := range fns {
			latency += f.Latency(req.Draws[stage], req.Batch, plan[stage])
		}
		atMax := plan[0] == 3000 && plan[1] == 3000 && plan[2] == 3000
		if latency > 3*time.Second && !atMax {
			t.Fatalf("request %d: plan %v misses SLO (%v) without sprinting", req.ID, plan, latency)
		}
		if total < 3000 {
			t.Fatalf("request %d: plan %v below the grid floor", req.ID, plan)
		}
	}
}

func TestOptimalCheapestAmongFeasibleFixedPlans(t *testing.T) {
	// Spot-check oracle optimality by exhaustive search on a coarse grid.
	coarse := profile.Grid{Min: 1000, Max: 3000, Step: 500}
	o, err := NewOptimal(workflow.IntelligentAssistant(), perfmodel.Catalog(), coarse, 0)
	if err != nil {
		t.Fatal(err)
	}
	fns := []*perfmodel.Function{
		perfmodel.ObjectDetection(), perfmodel.QuestionAnswering(), perfmodel.TextToSpeech(),
	}
	levels := coarse.Levels()
	for _, req := range iaRequests(t, 50) {
		oracleTotal := 0
		for stage := 0; stage < 3; stage++ {
			k, _ := o.Allocate(req, stage, 0)
			oracleTotal += k
		}
		best := 1 << 30
		for _, k0 := range levels {
			for _, k1 := range levels {
				for _, k2 := range levels {
					lat := fns[0].Latency(req.Draws[0], req.Batch, k0) +
						fns[1].Latency(req.Draws[1], req.Batch, k1) +
						fns[2].Latency(req.Draws[2], req.Batch, k2)
					// The oracle rounds latencies up by <=1ms per stage;
					// mirror that conservatism for a fair comparison.
					if lat+3*time.Millisecond <= 3*time.Second && k0+k1+k2 < best {
						best = k0 + k1 + k2
					}
				}
			}
		}
		if best == 1<<30 {
			continue // infeasible request; oracle sprints
		}
		if oracleTotal > best {
			t.Fatalf("request %d: oracle %d above exhaustive best %d", req.ID, oracleTotal, best)
		}
	}
}

func TestOptimalCachesPlans(t *testing.T) {
	o, err := NewOptimal(workflow.IntelligentAssistant(), perfmodel.Catalog(), profile.DefaultGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	req := iaRequests(t, 1)[0]
	a, _ := o.Allocate(req, 0, 0)
	b, _ := o.Allocate(req, 0, 0)
	if a != b {
		t.Fatal("plan changed across calls")
	}
	if o.Name() != "optimal" {
		t.Fatal("name changed")
	}
}

func TestNewOptimalValidation(t *testing.T) {
	if _, err := NewOptimal(workflow.IntelligentAssistant(), map[string]*perfmodel.Function{}, profile.DefaultGrid(), 0); err == nil {
		t.Error("missing functions accepted")
	}
	if _, err := NewOptimal(workflow.IntelligentAssistant(), perfmodel.Catalog(), profile.Grid{}, 0); err == nil {
		t.Error("invalid grid accepted")
	}
	// Arbitrary DAGs are in scope now: a partial join plans per layer of
	// its group DAG.
	nodes := []workflow.Node{{Name: "a", Function: "od"}, {Name: "b", Function: "qa"}, {Name: "c", Function: "ts"}, {Name: "d", Function: "ico"}}
	partial, err := workflow.New("partial", time.Second, nodes, [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOptimal(partial, perfmodel.Catalog(), profile.DefaultGrid(), 0); err != nil {
		t.Errorf("general DAG rejected: %v", err)
	}
	fan, err := workflow.NewSeriesParallel("fan", time.Second, [][]string{{"od"}, {"qa", "ts"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOptimal(fan, perfmodel.Catalog(), profile.DefaultGrid(), 0); err != nil {
		t.Errorf("fork-join workflow rejected: %v", err)
	}
}

func TestMinSumSizesEdgeCases(t *testing.T) {
	set := iaProfiles(t)
	grid := set.At(0).Grid
	if _, ok := minSumSizes(set.Profiles, grid, -5); ok {
		t.Error("negative budget feasible")
	}
	if _, ok := minSumSizes(set.Profiles, grid, 0); ok {
		t.Error("zero budget feasible")
	}
	sizes, ok := minSumSizes(set.Profiles, grid, 100000)
	if !ok {
		t.Fatal("huge budget infeasible")
	}
	for _, k := range sizes {
		if k != 1000 {
			t.Fatalf("huge budget sizes = %v, want all minimum", sizes)
		}
	}
}
