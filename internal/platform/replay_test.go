package platform

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"janus/internal/cluster"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

// iaReplayWorkload generates the IA workload with explicit schedule-style
// arrival instants.
func iaReplayWorkload(t *testing.T, arrivals []time.Duration) []*Request {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := GenerateWorkload(WorkloadConfig{
		Workflow:     workflow.IntelligentAssistant(),
		Functions:    perfmodel.Catalog(),
		Batch:        1,
		Arrivals:     arrivals,
		Colocation:   coloc,
		Interference: interfere.Default(),
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func everyN(n int, gap time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * gap
	}
	return out
}

func TestGenerateWorkloadExplicitArrivals(t *testing.T) {
	arrivals := []time.Duration{0, 10 * time.Millisecond, 10 * time.Millisecond, time.Second}
	reqs := iaReplayWorkload(t, arrivals)
	if len(reqs) != len(arrivals) {
		t.Fatalf("%d requests for %d arrivals", len(reqs), len(arrivals))
	}
	for i, r := range reqs {
		if r.Arrival != arrivals[i] {
			t.Fatalf("request %d admitted at %v, want %v", i, r.Arrival, arrivals[i])
		}
	}
	// Draws must match the Poisson-generated workload request for
	// request: the admission source must not perturb runtime conditions.
	poisson := iaWorkload(t, len(arrivals))
	for i := range reqs {
		if !reflect.DeepEqual(reqs[i].Draws, poisson[i].Draws) {
			t.Fatalf("request %d draws differ between explicit and Poisson arrivals", i)
		}
	}
}

func TestGenerateWorkloadExplicitArrivalValidation(t *testing.T) {
	coloc, _ := interfere.NewCountSampler([]float64{1})
	base := WorkloadConfig{
		Workflow:     workflow.IntelligentAssistant(),
		Functions:    perfmodel.Catalog(),
		Batch:        1,
		Colocation:   coloc,
		Interference: interfere.Default(),
	}
	bad := base
	bad.Arrivals = []time.Duration{time.Second, time.Millisecond}
	if _, err := GenerateWorkload(bad); err == nil {
		t.Fatal("out-of-order arrivals accepted")
	}
	bad = base
	bad.Arrivals = []time.Duration{-time.Millisecond}
	if _, err := GenerateWorkload(bad); err == nil {
		t.Fatal("negative arrival accepted")
	}
	bad = base
	bad.Arrivals = []time.Duration{0, time.Millisecond}
	bad.N = 5
	if _, err := GenerateWorkload(bad); err == nil {
		t.Fatal("N disagreeing with explicit arrivals accepted")
	}
}

func TestRunReplayValidation(t *testing.T) {
	e := defaultExecutor(t)
	reqs := iaReplayWorkload(t, everyN(3, 50*time.Millisecond))
	tenants := []TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}}}}
	if _, _, err := e.RunReplay(tenants, ReplayConfig{Interval: 0}); err == nil {
		t.Fatal("zero control interval accepted")
	}
	if _, _, err := e.RunReplay(tenants, ReplayConfig{Interval: time.Second, Horizon: -time.Second}); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

// TestRunReplayMatchesRunMixedWithoutController pins the reuse claim: with
// no controller and no hook, the control loop is pure observation and the
// traces are byte-identical to RunMixed over the same requests.
func TestRunReplayMatchesRunMixedWithoutController(t *testing.T) {
	arrivals := everyN(40, 25*time.Millisecond)
	alloc := &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}}
	e := defaultExecutor(t)
	mixed, err := e.RunMixed([]TenantWorkload{{Requests: iaReplayWorkload(t, arrivals), Allocator: alloc}})
	if err != nil {
		t.Fatal(err)
	}
	replayed, metrics, err := e.RunReplay(
		[]TenantWorkload{{Requests: iaReplayWorkload(t, arrivals), Allocator: alloc}},
		ReplayConfig{Interval: 100 * time.Millisecond, Horizon: time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mixed, replayed) {
		t.Fatal("replay without a controller diverged from RunMixed")
	}
	if metrics.Ticks == 0 || metrics.PodSeconds <= 0 || metrics.PeakPods <= 0 {
		t.Fatalf("empty replay metrics: %+v", metrics)
	}
	if metrics.PoolGrown != 0 || metrics.PoolShrunk != 0 {
		t.Fatalf("static replay churned pools: %+v", metrics)
	}
}

// rampController raises every pool to `up` at the first tick and drops it
// to `down` once the virtual clock passes `cut`.
type rampController struct {
	up, down int
	cut      time.Duration
}

func (c *rampController) Name() string { return "ramp" }

func (c *rampController) Targets(now time.Duration, stats []ReplayFunctionStats) map[string]int {
	out := make(map[string]int, len(stats))
	for _, fs := range stats {
		if now < c.cut {
			out[fs.Function] = c.up
		} else {
			out[fs.Function] = c.down
		}
	}
	return out
}

func TestRunReplayControllerScalesPools(t *testing.T) {
	arrivals := everyN(30, 20*time.Millisecond)
	e := defaultExecutor(t)
	ctrl := &rampController{up: 6, down: 1, cut: 2 * time.Second}
	traces, metrics, err := e.RunReplay(
		[]TenantWorkload{{Requests: iaReplayWorkload(t, arrivals), Allocator: &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}}}},
		ReplayConfig{Interval: 100 * time.Millisecond, Horizon: 4 * time.Second, Controller: ctrl},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(traces[""]); got != len(arrivals) {
		t.Fatalf("served %d of %d requests", got, len(arrivals))
	}
	// Deploy pre-warms 3 per function; the scale-up to 6 must have built
	// pods (after cold-start delays) and the drop to 1 must have shed
	// them again.
	if metrics.PoolGrown == 0 {
		t.Fatalf("scale-up built no pods: %+v", metrics)
	}
	if metrics.PoolShrunk == 0 {
		t.Fatalf("scale-down shed no pods: %+v", metrics)
	}
	if metrics.PeakPods <= 3 {
		t.Fatalf("peak pods %d never rose above a single pre-warmed pool", metrics.PeakPods)
	}
}

// recordingController raises every pool to `up` at the first tick and
// records the maximum warm depth it observes at each tick instant.
type recordingController struct {
	up      int
	maxWarm map[time.Duration]int
}

func (c *recordingController) Name() string { return "recording" }

func (c *recordingController) Targets(now time.Duration, stats []ReplayFunctionStats) map[string]int {
	for _, fs := range stats {
		if fs.Warm > c.maxWarm[now] {
			c.maxWarm[now] = fs.Warm
		}
	}
	out := make(map[string]int, len(stats))
	for _, fs := range stats {
		out[fs.Function] = c.up
	}
	return out
}

// TestRunReplayScaleUpPaysColdStart pins the honesty property: a target
// raised at tick zero yields no warm pod beyond the pre-warmed depth
// before the cold-start delay has elapsed, and yields them right after.
func TestRunReplayScaleUpPaysColdStart(t *testing.T) {
	cfg := DefaultExecutorConfig()
	cfg.ColdStartup = 300 * time.Millisecond
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &recordingController{up: 5, maxWarm: map[time.Duration]int{}}
	// A single quiet request: pools never drain below the pre-warmed 3
	// except for the pods the request itself borrows.
	_, _, err = e.RunReplay(
		[]TenantWorkload{{Requests: iaReplayWorkload(t, []time.Duration{0}), Allocator: &Fixed{System: "fixed", Sizes: []int{1500, 1500, 1500}}}},
		ReplayConfig{Interval: 50 * time.Millisecond, Horizon: time.Second, Controller: ctrl},
	)
	if err != nil {
		t.Fatal(err)
	}
	for at, warm := range ctrl.maxWarm {
		if at < cfg.ColdStartup && warm > 3 {
			t.Fatalf("pool grew beyond pre-warmed depth at %v (< cold start %v): warm %d", at, cfg.ColdStartup, warm)
		}
	}
	sawGrowth := false
	for at, warm := range ctrl.maxWarm {
		if at >= cfg.ColdStartup && warm >= 5 {
			sawGrowth = true
		}
	}
	if !sawGrowth {
		t.Fatalf("scale-up never landed after the cold-start delay: %v", ctrl.maxWarm)
	}
}

// TestRunReplayStarvationErrors pins parity with RunMixed: an allocation
// that can never be placed must fail the run with the starvation
// diagnostic, not spin the control loop on the virtual clock forever.
func TestRunReplayStarvationErrors(t *testing.T) {
	e := defaultExecutor(t)
	reqs := iaReplayWorkload(t, everyN(2, 10*time.Millisecond))
	// 60000 millicores exceeds the default node's 52000: the acquisition
	// parks permanently.
	tenants := []TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "huge", Sizes: []int{60000, 60000, 60000}}}}
	done := make(chan error, 1)
	go func() {
		_, _, err := e.RunReplay(tenants, ReplayConfig{Interval: 100 * time.Millisecond, Horizon: time.Second})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "never completed") {
			t.Fatalf("starved replay returned %v, want the starvation diagnostic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("starved replay hung instead of erroring")
	}
}

// demandController retargets every pool at each tick to half its busy
// pods plus its parked acquisitions, clamped to [1, 8], so targets move
// both ways and pods are built and shed through the run.
type demandController struct{}

func (demandController) Name() string { return "demand" }

func (demandController) Targets(_ time.Duration, stats []ReplayFunctionStats) map[string]int {
	out := make(map[string]int, len(stats))
	for _, fs := range stats {
		out[fs.Function] = min(max(fs.Busy/2+fs.Queued, 1), 8)
	}
	return out
}

// BenchmarkReplayServing times the static replay path end to end: one
// RunReplay of 3000 requests — 1000 each of ia, va and the cross-edge
// DAG, one tenant per workflow — on 8 nodes under demandController,
// every decision made by a memoizable stepAllocator, so the decision
// memo, the replay window and the pool controller all run. The requests
// are built once, outside the timer; every iteration serves them on a
// fresh run with fresh allocators.
func BenchmarkReplayServing(b *testing.B) {
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"ia", "va", "dag"}
	workflows := []*workflow.Workflow{workflow.IntelligentAssistant(), workflow.VideoAnalyze(), crossDAG(b)}
	reqs := make([][]*Request, len(workflows))
	for i, w := range workflows {
		reqs[i], err = GenerateWorkload(WorkloadConfig{
			Workflow: w, Functions: perfmodel.Catalog(), N: 1000, Batch: 1,
			ArrivalRatePerSec: 8, Colocation: coloc, Interference: interfere.Default(),
			StageCorrelation: 0.5, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	cfg := DefaultExecutorConfig()
	cfg.Cluster = cluster.Config{Nodes: 8, NodeMillicores: 8000, PoolSize: 2, IdleMillicores: 100}
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	rcfg := ReplayConfig{Interval: 100 * time.Millisecond, Controller: demandController{}}
	tenants := make([]TenantWorkload, len(names))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i, name := range names {
			tenants[i] = TenantWorkload{Tenant: name, Requests: reqs[i], Allocator: &stepAllocator{}}
		}
		if _, _, err := e.RunReplay(tenants, rcfg); err != nil {
			b.Fatal(err)
		}
	}
}
