package platform

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"janus/internal/cluster"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

func iaWorkload(t *testing.T, n int) []*Request {
	t.Helper()
	return iaWorkload2(n)
}

func defaultExecutor(t *testing.T) *Executor {
	t.Helper()
	e, err := NewExecutor(DefaultExecutorConfig(), perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGenerateWorkloadShape(t *testing.T) {
	reqs := iaWorkload(t, 50)
	if len(reqs) != 50 {
		t.Fatalf("generated %d requests, want 50", len(reqs))
	}
	prev := time.Duration(-1)
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if groups := r.Workflow.DecisionGroups(); len(r.Draws) != 3 || len(groups) != 3 {
			t.Fatalf("request %d has %d draws / %d stages", i, len(r.Draws), len(groups))
		}
		if r.Arrival <= prev {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
		prev = r.Arrival
		for s, d := range r.Draws {
			if d.WS <= 0 || d.Slowdown < 1 || d.Noise <= 0 {
				t.Fatalf("request %d stage %d has invalid draw %+v", i, s, d)
			}
		}
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	a := iaWorkload(t, 10)
	b := iaWorkload(t, 10)
	for i := range a {
		if a[i].Arrival != b[i].Arrival {
			t.Fatal("arrivals differ across identical generations")
		}
		if !slices.Equal(a[i].Draws, b[i].Draws) {
			t.Fatal("draws differ across identical generations")
		}
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	coloc, _ := interfere.NewCountSampler([]float64{1})
	base := WorkloadConfig{
		Workflow:   workflow.IntelligentAssistant(),
		Functions:  perfmodel.Catalog(),
		N:          1,
		Colocation: coloc,
	}
	bad := base
	bad.Workflow = nil
	if _, err := GenerateWorkload(bad); err == nil {
		t.Error("nil workflow accepted")
	}
	bad = base
	bad.N = 0
	if _, err := GenerateWorkload(bad); err == nil {
		t.Error("N=0 accepted")
	}
	bad = base
	bad.Colocation = nil
	if _, err := GenerateWorkload(bad); err == nil {
		t.Error("nil colocation accepted")
	}
	bad = base
	bad.Functions = map[string]*perfmodel.Function{}
	if _, err := GenerateWorkload(bad); err == nil {
		t.Error("missing functions accepted")
	}
	bad = base
	bad.Workflow = workflow.VideoAnalyze()
	bad.Batch = 2 // FE/ICO are not batchable
	if _, err := GenerateWorkload(bad); err == nil {
		t.Error("unbatchable workflow at batch 2 accepted")
	}
}

func TestRunProducesCompleteTraces(t *testing.T) {
	reqs := iaWorkload(t, 100)
	traces, err := defaultExecutor(t).Run(reqs, &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 100 {
		t.Fatalf("%d traces, want 100", len(traces))
	}
	for i, tr := range traces {
		if tr.RequestID != i {
			t.Fatalf("trace %d has request ID %d", i, tr.RequestID)
		}
		if len(tr.Stages) != 3 {
			t.Fatalf("trace %d has %d stages", i, len(tr.Stages))
		}
		if tr.TotalMillicores != 6000 {
			t.Fatalf("trace %d total millicores = %d, want 6000", i, tr.TotalMillicores)
		}
		if tr.E2E <= 0 || tr.Done <= tr.Arrival {
			t.Fatalf("trace %d has times e2e=%v done=%v arrival=%v", i, tr.E2E, tr.Done, tr.Arrival)
		}
		var stageSum time.Duration
		for s, st := range tr.Stages {
			if st.Millicores != 2000 {
				t.Fatalf("trace %d stage %d millicores = %d", i, s, st.Millicores)
			}
			if st.End <= st.Start {
				t.Fatalf("trace %d stage %d has non-positive span", i, s)
			}
			stageSum += st.End - st.Start
		}
		if tr.E2E < stageSum {
			t.Fatalf("trace %d e2e %v below stage sum %v", i, tr.E2E, stageSum)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	e := defaultExecutor(t)
	a, err := e.Run(iaWorkload(t, 30), &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(iaWorkload(t, 30), &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].E2E != b[i].E2E || a[i].TotalMillicores != b[i].TotalMillicores {
			t.Fatal("identical runs diverged")
		}
	}
}

// TestConcurrentRunsShareExecutor pins that an Executor holds no per-run
// state: concurrent Runs on one shared executor must each reproduce the
// sequential result exactly (and stay clean under -race).
func TestConcurrentRunsShareExecutor(t *testing.T) {
	e := defaultExecutor(t)
	want, err := e.Run(iaWorkload(t, 30), &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	got := make([][]Trace, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = e.Run(iaWorkload2(30), &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}})
		}()
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for j := range want {
			if got[i][j].E2E != want[j].E2E || got[i][j].TotalMillicores != want[j].TotalMillicores {
				t.Fatalf("concurrent run %d diverged from the sequential run at trace %d", i, j)
			}
		}
	}
}

// iaWorkload2 is iaWorkload without the testing.T, for use off the test
// goroutine.
func iaWorkload2(n int) []*Request {
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		panic(err)
	}
	reqs, err := GenerateWorkload(WorkloadConfig{
		Workflow:          workflow.IntelligentAssistant(),
		Functions:         perfmodel.Catalog(),
		N:                 n,
		Batch:             1,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		Seed:              42,
	})
	if err != nil {
		panic(err)
	}
	return reqs
}

func TestBiggerAllocationsRunFaster(t *testing.T) {
	e := defaultExecutor(t)
	small, err := e.Run(iaWorkload(t, 60), &Fixed{System: "s", Sizes: []int{1000, 1000, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.Run(iaWorkload(t, 60), &Fixed{System: "b", Sizes: []int{3000, 3000, 3000}})
	if err != nil {
		t.Fatal(err)
	}
	if E2ESample(big).Mean() >= E2ESample(small).Mean() {
		t.Fatalf("3000mc mean e2e %.1fms not below 1000mc %.1fms",
			E2ESample(big).Mean(), E2ESample(small).Mean())
	}
	if E2ESample(big).Percentile(99) >= E2ESample(small).Percentile(99) {
		t.Fatalf("3000mc P99 e2e %.1fms not below 1000mc %.1fms",
			E2ESample(big).Percentile(99), E2ESample(small).Percentile(99))
	}
}

func TestCapacityQueueingEventuallyServes(t *testing.T) {
	cfg := DefaultExecutorConfig()
	// A tiny node: only one 3000mc pod fits at a time.
	cfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: 3500, PoolSize: 1, IdleMillicores: 100}
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	reqs := iaWorkload(t, 20)
	traces, err := e.Run(reqs, &Fixed{System: "fixed", Sizes: []int{3000, 3000, 3000}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if len(tr.Stages) != 3 {
			t.Fatalf("request %d starved: %d stages", i, len(tr.Stages))
		}
	}
}

func TestExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(DefaultExecutorConfig(), nil); err == nil {
		t.Error("nil catalog accepted")
	}
	bad := DefaultExecutorConfig()
	bad.WarmStartup = -time.Second
	if _, err := NewExecutor(bad, perfmodel.Catalog()); err == nil {
		t.Error("negative startup accepted")
	}
	e := defaultExecutor(t)
	if _, err := e.Run(nil, &Fixed{System: "x", Sizes: []int{1}}); err == nil {
		t.Error("empty request set accepted")
	}
	if _, err := e.Run(iaWorkload(t, 1), nil); err == nil {
		t.Error("nil allocator accepted")
	}
}

// TestRunRejectsDrawsOfAnotherShape serves chain requests whose draws do
// not fit the workflow they name: re-pointed at workflows of another
// decision-group shape — va-sp has as many nodes, 3 — or carrying a draw
// too few. The run fails on the group count, a group's size or the draw
// count instead of serving draws at the positions of other nodes. A
// request built by hand carries no shape and is held to the draw count.
func TestRunRejectsDrawsOfAnotherShape(t *testing.T) {
	e := defaultExecutor(t)
	vasp, diamond := workflow.VideoAnalyzeSP(), diamondSP(t)
	chain, err := workflow.NewChain("fe-chain", 3*time.Second, "fe", "ico", "aes-encrypt")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(r *Request)
		want string
	}{
		{"va-sp", func(r *Request) { r.Workflow = vasp }, "carries 3 draw rows, workflow va-sp has 2 decision groups"},
		{"diamond", func(r *Request) { r.Workflow = diamond }, "group 1 carries 1 draws, workflow diamond has 2 members"},
		{"functions", func(r *Request) { r.Workflow = chain }, "group 0 member 0 was drawn for function od, workflow fe-chain runs fe"},
		{"short", func(r *Request) { r.Draws = r.Draws[:2] }, "carries 2 draws, workflow ia has 3 nodes"},
		{"by hand", func(r *Request) {
			*r = Request{ID: r.ID, Workflow: diamond, Draws: r.Draws, Arrival: r.Arrival, Batch: r.Batch}
		}, "carries 3 draws, workflow diamond has 4 nodes"},
	} {
		reqs := iaWorkload(t, 2)
		for _, r := range reqs {
			c.edit(r)
		}
		_, err := e.Run(reqs, &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// A copy of the workflow under another SLO runs the same nodes, so
	// the draws drawn for the original still serve it.
	reqs := iaWorkload(t, 2)
	tighter, err := reqs[0].Workflow.WithSLO(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		r.Workflow = tighter
	}
	if _, err := e.Run(reqs, &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}}); err != nil {
		t.Errorf("WithSLO copy: %v", err)
	}
}

type badAllocator struct{}

func (badAllocator) Name() string { return "bad" }
func (badAllocator) Allocate(*Request, int, time.Duration) (int, bool) {
	return 0, true
}

func TestNonPositiveAllocationFailsRun(t *testing.T) {
	e := defaultExecutor(t)
	if _, err := e.Run(iaWorkload(t, 3), badAllocator{}); err == nil {
		t.Fatal("allocator returning 0 millicores should fail the run")
	}
}

// TestAllocationPastInt32FailsRun sizes one tenant's groups above
// MaxInt32 millicores next to a tenant that fills the node, so the
// oversized acquisitions park. A park record holds 32 bits, and a wake
// would retry at the value's low bits (1000 mc here): decide must fail
// the run instead, naming the allocator.
func TestAllocationPastInt32FailsRun(t *testing.T) {
	huge := 1<<32 + 1000
	_, err := defaultExecutor(t).RunMixed([]TenantWorkload{
		{Tenant: "a", Requests: iaWorkload(t, 50), Allocator: &Fixed{System: "fills", Sizes: []int{20000, 20000, 20000}}},
		{Tenant: "b", Requests: iaWorkload(t, 5), Allocator: &Fixed{System: "huge", Sizes: []int{huge, huge, huge}}},
	})
	if err == nil || !strings.Contains(err.Error(), "huge") {
		t.Fatalf("allocation of %d mc: err = %v, want a run failure naming allocator huge", huge, err)
	}
}

func TestMetricsHelpers(t *testing.T) {
	traces := []Trace{
		{E2E: time.Second, SLO: 2 * time.Second, TotalMillicores: 3000, Stages: make([]StageTrace, 3), Decisions: 3},
		{E2E: 3 * time.Second, SLO: 2 * time.Second, TotalMillicores: 5000, Stages: make([]StageTrace, 3), Decisions: 3, Misses: 1},
	}
	if got := MeanMillicores(traces); got != 4000 {
		t.Errorf("MeanMillicores = %v", got)
	}
	if got := SLOViolationRate(traces); got != 0.5 {
		t.Errorf("SLOViolationRate = %v", got)
	}
	if got := MissRate(traces); got != 1.0/6 {
		t.Errorf("MissRate = %v", got)
	}
	slack := SlackSample(traces)
	if slack.Len() != 2 || slack.Percentile(0) != -0.5 || slack.Max() != 0.5 {
		t.Errorf("SlackSample = %v", slack.Values())
	}
	if E2ESample(traces).Mean() != 2000 {
		t.Errorf("E2ESample mean = %v", E2ESample(traces).Mean())
	}
	if SLOViolationRate(nil) != 0 || MissRate(nil) != 0 {
		t.Error("empty-trace metrics should be 0")
	}
}

func TestFixedPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fixed out-of-range stage did not panic")
		}
	}()
	f := &Fixed{System: "x", Sizes: []int{1000}}
	f.Allocate(nil, 1, 0)
}

// diamondSP is od fanning out to concurrent (qa, ts) branches joining into
// ico — the canonical series-parallel shape, on catalog functions.
func diamondSP(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := workflow.NewSeriesParallel("diamond", 3500*time.Millisecond, [][]string{{"od"}, {"qa", "ts"}, {"ico"}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func spWorkload(t *testing.T, w *workflow.Workflow, n int) []*Request {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := GenerateWorkload(WorkloadConfig{
		Workflow:          w,
		Functions:         perfmodel.Catalog(),
		N:                 n,
		Batch:             1,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestGenerateWorkloadSeriesParallel(t *testing.T) {
	reqs := spWorkload(t, diamondSP(t), 20)
	for i, r := range reqs {
		groups := r.Workflow.DecisionGroups()
		if len(groups) != 3 || len(groups[1].Nodes) != 2 {
			t.Fatalf("request %d: %d stages, fan-out stage of %d branches", i, len(groups), len(groups[1].Nodes))
		}
		if len(r.Draws) != 4 {
			t.Fatalf("request %d: %d draws for 4 nodes", i, len(r.Draws))
		}
	}
}

// TestSeriesParallelJoinSemantics serves the diamond and checks fork-join
// execution on the substrate: one pod (and one StageTrace) per branch, both
// branches launched together after stage 0, and the join — stage 2's start —
// gated by the slowest branch.
func TestSeriesParallelJoinSemantics(t *testing.T) {
	w := diamondSP(t)
	traces, err := defaultExecutor(t).Run(spWorkload(t, w, 40), &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}})
	if err != nil {
		t.Fatal(err)
	}
	groups := w.DecisionGroups()
	for i, tr := range traces {
		if len(tr.Stages) != 4 {
			t.Fatalf("trace %d has %d branch executions, want 4", i, len(tr.Stages))
		}
		if tr.Decisions != 3 {
			t.Fatalf("trace %d has %d decisions, want 3 (one per stage)", i, tr.Decisions)
		}
		if tr.TotalMillicores != 8000 {
			t.Fatalf("trace %d total millicores = %d, want 8000 (branches included)", i, tr.TotalMillicores)
		}
		byStage := map[uint16][]StageTrace{}
		for _, st := range tr.Stages {
			byStage[st.Stage] = append(byStage[st.Stage], st)
		}
		if len(byStage[1]) != 2 {
			t.Fatalf("trace %d stage 1 ran %d branches", i, len(byStage[1]))
		}
		if byStage[1][0].Branch == byStage[1][1].Branch {
			t.Fatalf("trace %d stage 1 branches share index %d", i, byStage[1][0].Branch)
		}
		end0 := byStage[0][0].End
		var slowest time.Duration
		for _, b := range byStage[1] {
			if b.Start < end0 {
				t.Fatalf("trace %d: branch %s started %v before stage 0 ended %v", i, groups[b.Stage].Nodes[b.Branch].Function, b.Start, end0)
			}
			if b.End > slowest {
				slowest = b.End
			}
		}
		if got := byStage[2][0].Start; got < slowest {
			t.Fatalf("trace %d: join fired at %v before slowest branch ended %v", i, got, slowest)
		}
		if tr.Done != byStage[2][0].End || tr.E2E != tr.Done-tr.Arrival {
			t.Fatalf("trace %d: done %v / e2e %v inconsistent", i, tr.Done, tr.E2E)
		}
	}
}

// countingAllocator records how many times Allocate is invoked per
// (request, stage) and always reports a miss.
type countingAllocator struct {
	size  int
	calls map[[2]int]int
}

func (c *countingAllocator) Name() string { return "counting" }
func (c *countingAllocator) Allocate(req *Request, stage int, _ time.Duration) (int, bool) {
	c.calls[[2]int{req.ID, stage}]++
	return c.size, false
}

// TestAllocateOncePerStageUnderParking is the regression test for the
// retry-miss bug: a stage whose branch parks on exhausted capacity must NOT
// re-invoke the allocator (re-paying decision overhead and re-counting the
// miss) on every retry — the decision is made once per stage and reused.
func TestAllocateOncePerStageUnderParking(t *testing.T) {
	cfg := DefaultExecutorConfig()
	// One 3000mc pod fits at a time: heavy parking.
	cfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: 3500, PoolSize: 1, IdleMillicores: 100}
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	alloc := &countingAllocator{size: 3000, calls: make(map[[2]int]int)}
	traces, err := e.Run(iaWorkload(t, 20), alloc)
	if err != nil {
		t.Fatal(err)
	}
	parked := 0
	for _, tr := range traces {
		parked += tr.Parked
		if tr.Misses != 3 || tr.Decisions != 3 {
			t.Fatalf("request %d: %d misses / %d decisions, want 3/3 (one decision per stage)", tr.RequestID, tr.Misses, tr.Decisions)
		}
	}
	if parked == 0 {
		t.Fatal("no branch ever parked; the regression scenario did not trigger")
	}
	for key, n := range alloc.calls {
		if n != 1 {
			t.Fatalf("request %d stage %d decided %d times, want once", key[0], key[1], n)
		}
	}
}

// TestStarvedRequestsFailTheRun is the regression test for the silent
// zero-trace drain: an allocation no node can ever host must fail the run
// explicitly instead of returning E2E=0, zero-cost traces that count as
// SLO-met and free.
func TestStarvedRequestsFailTheRun(t *testing.T) {
	cfg := DefaultExecutorConfig()
	cfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: 3500, PoolSize: 1, IdleMillicores: 100}
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(iaWorkload(t, 5), &Fixed{System: "fixed", Sizes: []int{4000, 4000, 4000}})
	if err == nil {
		t.Fatal("requests that can never acquire capacity drained out without an error")
	}
}

// vaWorkload generates a Video Analyze chain workload with its own seed so
// mixed-run tests can pit distinct tenants against each other.
func vaWorkload(t *testing.T, n int, seed uint64) []*Request {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.4, 0.4, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := GenerateWorkload(WorkloadConfig{
		Workflow:          workflow.VideoAnalyze(),
		Functions:         perfmodel.Catalog(),
		N:                 n,
		Batch:             1,
		ArrivalRatePerSec: 2,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		Seed:              seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestRunMixedValidation(t *testing.T) {
	e := defaultExecutor(t)
	alloc := &Fixed{System: "x", Sizes: []int{1000, 1000, 1000}}
	reqs := iaWorkload(t, 2)
	if _, err := e.RunMixed(nil); err == nil {
		t.Error("empty tenant set accepted")
	}
	if _, err := e.RunMixed([]TenantWorkload{
		{Tenant: "a", Requests: reqs, Allocator: alloc},
		{Tenant: "a", Requests: reqs, Allocator: alloc},
	}); err == nil {
		t.Error("duplicate tenant names accepted")
	}
	if _, err := e.RunMixed([]TenantWorkload{
		{Tenant: "", Requests: reqs, Allocator: alloc},
		{Tenant: "b", Requests: reqs, Allocator: alloc},
	}); err == nil {
		t.Error("unnamed tenant in a mixed run accepted")
	}
	if _, err := e.RunMixed([]TenantWorkload{{Tenant: "a", Requests: nil, Allocator: alloc}}); err == nil {
		t.Error("tenant without requests accepted")
	}
	if _, err := e.RunMixed([]TenantWorkload{{Tenant: "a", Requests: reqs, Allocator: nil}}); err == nil {
		t.Error("tenant without allocator accepted")
	}
	dup := []*Request{reqs[0], reqs[0]}
	if _, err := e.RunMixed([]TenantWorkload{{Tenant: "a", Requests: dup, Allocator: alloc}}); err == nil {
		t.Error("duplicate request IDs accepted")
	}
}

// TestRunMixedTenantAccounting merges three tenants — two VA chains and one
// IA chain — and checks the per-tenant split: every tenant gets exactly one
// trace per request, tagged with its tenant and system, and the per-tenant
// counts sum to the merged workload size.
func TestRunMixedTenantAccounting(t *testing.T) {
	e := defaultExecutor(t)
	tenants := []TenantWorkload{
		{Tenant: "ia", Requests: iaWorkload(t, 30), Allocator: &Fixed{System: "s-ia", Sizes: []int{2000, 2000, 2000}}},
		{Tenant: "va1", Requests: vaWorkload(t, 20, 7), Allocator: &Fixed{System: "s-va1", Sizes: []int{1500, 1500, 1500}}},
		{Tenant: "va2", Requests: vaWorkload(t, 25, 8), Allocator: &Fixed{System: "s-va2", Sizes: []int{2500, 2500, 2500}}},
	}
	out, err := e.RunMixed(tenants)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d tenants in result, want 3", len(out))
	}
	total := 0
	for _, tw := range tenants {
		traces := out[tw.Tenant]
		if len(traces) != len(tw.Requests) {
			t.Fatalf("tenant %s: %d traces for %d requests", tw.Tenant, len(traces), len(tw.Requests))
		}
		total += len(traces)
		for i, tr := range traces {
			if tr.RequestID != i {
				t.Fatalf("tenant %s trace %d has request ID %d", tw.Tenant, i, tr.RequestID)
			}
			if len(tr.Stages) != 3 || tr.E2E <= 0 {
				t.Fatalf("tenant %s trace %d incomplete: %d stages e2e=%v", tw.Tenant, i, len(tr.Stages), tr.E2E)
			}
		}
	}
	if want := 30 + 20 + 25; total != want {
		t.Fatalf("per-tenant trace counts sum to %d, want %d", total, want)
	}
}

// TestRunMixedDeterministic replays the identical mixed run twice; the
// merged event interleaving must be a pure function of the inputs.
func TestRunMixedDeterministic(t *testing.T) {
	e := defaultExecutor(t)
	run := func() map[string][]Trace {
		out, err := e.RunMixed([]TenantWorkload{
			{Tenant: "ia", Requests: iaWorkload(t, 25), Allocator: &Fixed{System: "f", Sizes: []int{2000, 2000, 2000}}},
			{Tenant: "va", Requests: vaWorkload(t, 25, 7), Allocator: &Fixed{System: "f", Sizes: []int{1500, 1500, 1500}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for tenant := range a {
		for i := range a[tenant] {
			ta, tb := a[tenant][i], b[tenant][i]
			if ta.E2E != tb.E2E || ta.TotalMillicores != tb.TotalMillicores || ta.Parked != tb.Parked {
				t.Fatalf("tenant %s trace %d diverged across identical mixed runs", tenant, i)
			}
			for s := range ta.Stages {
				if ta.Stages[s] != tb.Stages[s] {
					t.Fatalf("tenant %s trace %d stage %d diverged", tenant, i, s)
				}
			}
		}
	}
}

// TestRunMixedContention is the tentpole's point: the same tenant workload
// must observe worse service when sharing the cluster with a competing
// tenant than when it owns the substrate — queueing (parking) and warm-pool
// pressure (cold starts) from cross-tenant load must show up in its traces.
func TestRunMixedContention(t *testing.T) {
	cfg := DefaultExecutorConfig()
	// Two 2500mc pods fit at a time: mixing doubles admission pressure on
	// a substrate that can barely serve one tenant.
	cfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: 6000, PoolSize: 1, IdleMillicores: 100}
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	alloc := &Fixed{System: "f", Sizes: []int{2500, 2500, 2500}}
	alone, err := e.Run(vaWorkload(t, 40, 7), alloc)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := e.RunMixed([]TenantWorkload{
		{Tenant: "va", Requests: vaWorkload(t, 40, 7), Allocator: alloc},
		{Tenant: "rival", Requests: vaWorkload(t, 40, 99), Allocator: alloc},
	})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(traces []Trace) (parked, cold int) {
		for _, tr := range traces {
			parked += tr.Parked
			for _, st := range tr.Stages {
				if st.Cold {
					cold++
				}
			}
		}
		return
	}
	aloneParked, aloneCold := cost(alone)
	mixedParked, mixedCold := cost(mixed["va"])
	if mixedParked+mixedCold <= aloneParked+aloneCold {
		t.Fatalf("no cross-tenant contention: alone parked=%d cold=%d, mixed parked=%d cold=%d",
			aloneParked, aloneCold, mixedParked, mixedCold)
	}
	if E2ESample(mixed["va"]).Mean() <= E2ESample(alone).Mean() {
		t.Fatalf("mean e2e under contention %.1fms not above isolated %.1fms",
			E2ESample(mixed["va"]).Mean(), E2ESample(alone).Mean())
	}
}

// TestRunMixedMultiNodePlacement serves a mixed workload on a two-node
// cluster under each placement policy: spread must use both nodes, and
// first-fit must keep the load on node 0 while it fits.
func TestRunMixedMultiNodePlacement(t *testing.T) {
	nodesUsed := func(placement cluster.Placement, mc int) map[int]int {
		cfg := DefaultExecutorConfig()
		cfg.Cluster = cluster.Config{Nodes: 2, NodeMillicores: 26000, PoolSize: 0, IdleMillicores: 100, Placement: placement}
		e, err := NewExecutor(cfg, perfmodel.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.RunMixed([]TenantWorkload{
			{Tenant: "ia", Requests: iaWorkload(t, 20), Allocator: &Fixed{System: "f", Sizes: []int{mc, mc, mc}}},
			{Tenant: "va", Requests: vaWorkload(t, 20, 7), Allocator: &Fixed{System: "f", Sizes: []int{mc, mc, mc}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		used := map[int]int{}
		for _, traces := range out {
			for _, tr := range traces {
				for _, st := range tr.Stages {
					used[int(st.Node)]++
				}
			}
		}
		return used
	}
	spread := nodesUsed(cluster.PlacementSpread, 2000)
	if len(spread) != 2 {
		t.Fatalf("spread placement used nodes %v, want both", spread)
	}
	packed := nodesUsed(cluster.PlacementFirstFit, 2000)
	if packed[1] != 0 {
		t.Fatalf("first-fit spilled %d branch executions to node 1 with node 0 never full (%v)", packed[1], packed)
	}
}

// TestServeInheritsQueueingFromTheSubstrate serves the same fork-join
// workload on an uncongested and a cramped cluster: the cramped plane
// must park acquisitions and show strictly higher end-to-end latency —
// queueing a sequential replay loop over the draws could never produce.
func TestServeInheritsQueueingFromTheSubstrate(t *testing.T) {
	coloc, err := interfere.NewCountSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := GenerateWorkload(WorkloadConfig{
		Workflow:          diamondSP(t),
		Functions:         perfmodel.Catalog(),
		N:                 120,
		ArrivalRatePerSec: 6,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		Seed:              11,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveOn := func(nodeMC int) []Trace {
		cfg := DefaultExecutorConfig()
		cfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: nodeMC, PoolSize: 2, IdleMillicores: 100}
		e, err := NewExecutor(cfg, perfmodel.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		traces, err := e.Run(reqs, &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}})
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}
	roomy, cramped := serveOn(52000), serveOn(10000)
	parked := 0
	for i := range cramped {
		parked += cramped[i].Parked
	}
	if parked == 0 {
		t.Fatal("cramped cluster parked no acquisitions")
	}
	if c, r := E2ESample(cramped).Mean(), E2ESample(roomy).Mean(); c <= r {
		t.Fatalf("cramped cluster mean e2e %.1fms not above roomy %.1fms", c, r)
	}
}

// TestSeriesParallelColdStartsAndParkingDeterministic runs the diamond on a
// pool-less tiny cluster: every branch cold-starts, parking is rampant,
// and two identical runs stay byte-identical.
func TestSeriesParallelColdStartsAndParkingDeterministic(t *testing.T) {
	cfg := DefaultExecutorConfig()
	cfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: 7000, PoolSize: 0, IdleMillicores: 100}
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Trace {
		traces, err := e.Run(spWorkload(t, diamondSP(t), 30), &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}})
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}
	a, b := run(), run()
	cold, parked := 0, 0
	for i := range a {
		parked += a[i].Parked
		for s := range a[i].Stages {
			if a[i].Stages[s].Cold {
				cold++
			}
			if a[i].Stages[s] != b[i].Stages[s] {
				t.Fatalf("trace %d stage %d diverged across identical runs", i, s)
			}
		}
		if a[i].E2E != b[i].E2E || a[i].TotalMillicores != b[i].TotalMillicores || a[i].Parked != b[i].Parked {
			t.Fatal("summary diverged across identical runs")
		}
	}
	if cold == 0 {
		t.Fatal("pool-less cluster produced no cold starts")
	}
	if parked == 0 {
		t.Fatal("tiny cluster produced no parking")
	}
}

// TestPlacementNeverChangesStageLatency serves the diamond, and the
// dynamic trigger workflow with its map replicas and retries, on a
// crowded two-node cluster under each placement policy. Placement moves
// pods between nodes, parks acquisitions and decides cold starts, but
// every stage's latency — recovered from its span by
// ExecutorConfig.StageTimes — must be its request's pre-sampled draw
// priced at the stage's allocation: the property baseline.Optimal's
// clairvoyance and the paired comparisons across systems rest on.
func TestPlacementNeverChangesStageLatency(t *testing.T) {
	fns := perfmodel.Catalog()
	diamond, trig := diamondSP(t), trigWorkflow(t)
	for _, placement := range []cluster.Placement{cluster.PlacementSpread, cluster.PlacementFirstFit} {
		cfg := DefaultExecutorConfig()
		cfg.Cluster = cluster.Config{Nodes: 2, NodeMillicores: 7000, PoolSize: 1, IdleMillicores: 100, Placement: placement}
		e, err := NewExecutor(cfg, fns)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, w *workflow.Workflow, reqs []*Request, traces []Trace) (replicas, retries int) {
			t.Helper()
			groups := w.DecisionGroups()
			parked, cold, warm := 0, 0, 0
			used := map[int32]bool{}
			for _, tr := range traces {
				parked += tr.Parked
				req := reqs[tr.RequestID]
				for i := range tr.Stages {
					st := &tr.Stages[i]
					used[st.Node] = true
					node := groups[st.Stage].Nodes[st.Branch]
					_, latency := cfg.StageTimes(st)
					if st.Cold {
						cold++
					} else {
						warm++
					}
					want := fns[node.Function].Latency(stageDraw(groups, req, st), int(st.Millicores))
					if latency != want {
						t.Fatalf("%v %s: request %d stage %d branch %d replica %d attempt %d on node %d ran %v, its draw at %d mc prices %v",
							placement, name, tr.RequestID, st.Stage, st.Branch, st.Replica, st.Attempt, st.Node, latency, st.Millicores, want)
					}
					if st.Replica > 0 {
						replicas++
					}
					if st.Attempt > 0 {
						retries++
					}
				}
			}
			if len(used) != 2 {
				t.Fatalf("%v %s: stages ran on nodes %v, want both", placement, name, used)
			}
			if parked == 0 || cold == 0 || warm == 0 {
				t.Fatalf("%v %s: crowded cluster parked %d acquisitions, started %d cold and %d warm pods, want each", placement, name, parked, cold, warm)
			}
			return replicas, retries
		}

		reqs := spWorkload(t, diamond, 60)
		traces, err := e.Run(reqs, &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}})
		if err != nil {
			t.Fatal(err)
		}
		check("diamond", diamond, reqs, traces)

		reqs = trigWorkload(t, trig, 60)
		dyn, _, err := e.RunReplay(
			[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
			ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", 120*time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		if replicas, retries := check("trig", trig, reqs, dyn[""]); replicas == 0 || retries == 0 {
			t.Fatalf("%v trig: served %d later map replicas and %d retries, want both", placement, replicas, retries)
		}
	}
}

// stageDraw returns the draw stage st of request r ran off: a map
// replica's or retry attempt's own draw, or else its node's base draw.
func stageDraw(groups []workflow.Group, r *Request, st *StageTrace) perfmodel.Draw {
	if r.Dyn != nil {
		if draws := r.Dyn.NodeDraws(groups[st.Stage].Nodes[st.Branch].Name, int(st.Replica)); draws != nil {
			return draws[st.Attempt]
		}
	}
	flat := int(st.Branch)
	for g := range st.Stage {
		flat += len(groups[g].Nodes)
	}
	return r.Draws[flat]
}

// crossDAG is the smallest genuinely non-series-parallel shape on catalog
// functions: pre fans out to detect and classify, detect additionally
// feeds ocr, and fuse joins all three (in-degree 3). Decision groups:
// [pre] [detect, classify] [ocr] [fuse].
func crossDAG(t testing.TB) *workflow.Workflow {
	t.Helper()
	nodes := []workflow.Node{
		{Name: "pre", Function: "fe"},
		{Name: "detect", Function: "icl"},
		{Name: "classify", Function: "ico"},
		{Name: "ocr", Function: "aes-encrypt"},
		{Name: "fuse", Function: "redis-read"},
	}
	edges := [][2]string{
		{"pre", "detect"}, {"pre", "classify"},
		{"detect", "ocr"},
		{"detect", "fuse"}, {"classify", "fuse"}, {"ocr", "fuse"},
	}
	w, err := workflow.New("cross", 2*time.Second, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// budgetRecorder serves fixed sizes while recording the remaining budget
// each decision group was handed, per request.
type budgetRecorder struct {
	sizes  []int
	remain map[int]map[int]time.Duration
}

func (b *budgetRecorder) Name() string { return "recorder" }
func (b *budgetRecorder) Allocate(req *Request, group int, remaining time.Duration) (int, bool) {
	if b.remain[req.ID] == nil {
		b.remain[req.ID] = map[int]time.Duration{}
	}
	b.remain[req.ID][group] = remaining
	return b.sizes[group], true
}

// TestNodeGranularReadinessSemantics is the engine-level acceptance test
// of the tentpole: on a cross-edge DAG, nodes start at predecessor
// completion (no stage barrier), the fork shares one decision, the
// in-degree-3 join waits for its slowest input, and every decision is
// made against the critical-path remaining budget SLO − elapsed at the
// group's readiness instant.
func TestNodeGranularReadinessSemantics(t *testing.T) {
	w := crossDAG(t)
	alloc := &budgetRecorder{sizes: []int{2000, 1500, 1200, 1100}, remain: map[int]map[int]time.Duration{}}
	traces, err := defaultExecutor(t).Run(spWorkload(t, w, 30), alloc)
	if err != nil {
		t.Fatal(err)
	}
	groups := w.DecisionGroups()
	for i, tr := range traces {
		if len(tr.Stages) != 5 {
			t.Fatalf("trace %d ran %d nodes, want 5", i, len(tr.Stages))
		}
		if tr.Decisions != 4 {
			t.Fatalf("trace %d made %d decisions, want 4 (detect and classify share one)", i, tr.Decisions)
		}
		// 2000 + 1500*2 + 1200 + 1100, the fork group counted per pod.
		if tr.TotalMillicores != 7300 {
			t.Fatalf("trace %d consumed %d mc, want 7300", i, tr.TotalMillicores)
		}
		byStep := map[string]StageTrace{}
		for _, st := range tr.Stages {
			byStep[groups[st.Stage].Nodes[st.Branch].Name] = st
		}
		for step, group := range map[string]uint16{"pre": 0, "detect": 1, "classify": 1, "ocr": 2, "fuse": 3} {
			st, ok := byStep[step]
			if !ok {
				t.Fatalf("trace %d has no execution for node %q", i, step)
			}
			if st.Stage != group {
				t.Fatalf("trace %d node %s tagged group %d, want %d", i, step, st.Stage, group)
			}
		}
		// Fork members launch together, after their shared predecessor.
		if byStep["detect"].Start != byStep["classify"].Start {
			t.Fatalf("trace %d fork members started at %v and %v", i, byStep["detect"].Start, byStep["classify"].Start)
		}
		if byStep["detect"].Start < byStep["pre"].End {
			t.Fatalf("trace %d detect started %v before pre ended %v", i, byStep["detect"].Start, byStep["pre"].End)
		}
		// The cross path: ocr is gated by detect alone — not by classify.
		if byStep["ocr"].Start < byStep["detect"].End {
			t.Fatalf("trace %d ocr started %v before detect ended %v", i, byStep["ocr"].Start, byStep["detect"].End)
		}
		// The in-degree-3 join waits for its slowest input.
		slowest := byStep["detect"].End
		for _, step := range []string{"classify", "ocr"} {
			if byStep[step].End > slowest {
				slowest = byStep[step].End
			}
		}
		if byStep["fuse"].Start < slowest {
			t.Fatalf("trace %d fuse started %v before its slowest input ended %v", i, byStep["fuse"].Start, slowest)
		}
		if tr.Done != byStep["fuse"].End || tr.E2E != tr.Done-tr.Arrival {
			t.Fatalf("trace %d done/e2e inconsistent: %v / %v", i, tr.Done, tr.E2E)
		}
		// Budgets: SLO − elapsed at each group's readiness instant.
		rem := alloc.remain[tr.RequestID]
		slo := w.SLO()
		if got, want := rem[0], slo-(byStep["pre"].Start-tr.Arrival); got != want {
			t.Fatalf("trace %d group 0 budget %v, want %v", i, got, want)
		}
		if got, want := rem[2], slo-(byStep["detect"].End-tr.Arrival); got != want {
			t.Fatalf("trace %d ocr budget %v, want SLO-elapsed %v at detect's end", i, got, want)
		}
		if got, want := rem[3], slo-(slowest-tr.Arrival); got != want {
			t.Fatalf("trace %d fuse budget %v, want SLO-elapsed %v at the join", i, got, want)
		}
	}
}
