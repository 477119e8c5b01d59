// Benchmarks regenerating every table and figure of the paper's evaluation
// at paper scale (1000 requests per point, 1 ms budget sweeps, 2000
// profiling samples per cell). One benchmark per table/figure; run with
//
//	go test -bench=. -benchmem
//
// The shared suite caches profiles, deployments, and serving runs, so the
// first iteration of each benchmark pays the real cost and the reported
// per-op numbers stabilize quickly. cmd/janusbench prints the same rows.
//
// BenchmarkReplayScenario and BenchmarkFleetScenario build a fresh
// paper-scale suite per iteration, so every iteration serves the grid.
// BenchmarkEvaluationGrid{Sequential,Parallel} likewise build a fresh
// reduced-scale suite per iteration to time the concurrent
// experiment engine end to end. Compare the pair with
//
//	go test -bench='BenchmarkEvaluationGrid' -benchtime=1x
//
// on a multi-core machine to see the worker pool's near-linear speedup.
package janus_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"janus"
	"janus/internal/experiment"
	"janus/internal/obs"
)

var (
	benchOnce  sync.Once
	benchSuite *janus.ExperimentSuite
)

func suite() *janus.ExperimentSuite {
	benchOnce.Do(func() { benchSuite = janus.NewExperimentSuite() })
	return benchSuite
}

func BenchmarkFig1aSlackCDF(b *testing.B) {
	s := suite()
	var share float64
	for i := 0; i < b.N; i++ {
		f, err := s.Fig1a()
		if err != nil {
			b.Fatal(err)
		}
		share = f.PopularShare
	}
	b.ReportMetric(share*100, "popular_share_%")
}

func BenchmarkFig1bWorkingSetVariance(b *testing.B) {
	s := suite()
	var maxRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig1b()
		if err != nil {
			b.Fatal(err)
		}
		maxRatio = 0
		for _, r := range rows {
			if r.Ratio > maxRatio {
				maxRatio = r.Ratio
			}
		}
	}
	b.ReportMetric(maxRatio, "max_p99_over_p1")
}

func BenchmarkFig1cInterference(b *testing.B) {
	s := suite()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig1c()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if v := r.Normalized[len(r.Normalized)-1]; v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst_slowdown_x")
}

func BenchmarkFig2EarlyVsLate(b *testing.B) {
	s := suite()
	var mean, max float64
	for i := 0; i < b.N; i++ {
		f, err := s.Fig2(50)
		if err != nil {
			b.Fatal(err)
		}
		mean, max = f.MeanSavings(), f.MaxSavings()
	}
	b.ReportMetric(mean*100, "mean_savings_%")
	b.ReportMetric(max*100, "max_savings_%")
}

func BenchmarkFig4LatencyDistribution(b *testing.B) {
	s := suite()
	var worstViolation float64
	for i := 0; i < b.N; i++ {
		panels, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		worstViolation = 0
		for _, p := range panels {
			for _, d := range p.Systems {
				if d.ViolationRate > worstViolation {
					worstViolation = d.ViolationRate
				}
			}
		}
	}
	b.ReportMetric(worstViolation*100, "worst_violation_%")
}

func BenchmarkFig5aResourceConsumption(b *testing.B) {
	s := suite()
	var janusNorm float64
	for i := 0; i < b.N; i++ {
		panels, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range panels[0].Systems {
			if r.System == experiment.SysJanus {
				janusNorm = r.Normalized
			}
		}
	}
	b.ReportMetric(janusNorm, "ia_janus_vs_optimal")
}

func BenchmarkFig5bHigherConcurrency(b *testing.B) {
	s := suite()
	var worstEarly float64
	for i := 0; i < b.N; i++ {
		panels, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		worstEarly = 0
		for _, p := range panels[2:] { // the concurrency 2 and 3 panels
			for _, r := range p.Systems {
				if (r.System == experiment.SysGrandSLAM || r.System == experiment.SysGrandSLAMP) && r.Normalized > worstEarly {
					worstEarly = r.Normalized
				}
			}
		}
	}
	b.ReportMetric(worstEarly, "early_binding_overalloc_x")
}

func BenchmarkFig6aModerateExploration(b *testing.B) {
	s := suite()
	var meanDelta float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		meanDelta = 0
		for _, r := range rows {
			meanDelta += (r.JanusPlusMillicores/r.JanusMillicores - 1) / float64(len(rows))
		}
	}
	b.ReportMetric(meanDelta*100, "janus+_consumption_delta_%")
}

func BenchmarkFig6bSynthesisCost(b *testing.B) {
	s := suite()
	var worstRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		worstRatio = 0
		for _, r := range rows {
			if ratio := float64(r.JanusPlusSynth) / float64(r.JanusSynth); ratio > worstRatio {
				worstRatio = ratio
			}
		}
	}
	b.ReportMetric(worstRatio, "janus+_synth_cost_x")
}

func BenchmarkFig7aTimeout(b *testing.B) {
	s := suite()
	var atMin int
	for i := 0; i < b.N; i++ {
		f, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		atMin = f.TimeoutMs[25][0]
	}
	b.ReportMetric(float64(atMin), "ts_timeout_p25_kmin_ms")
}

func BenchmarkFig7bResilience(b *testing.B) {
	s := suite()
	var atMin int
	for i := 0; i < b.N; i++ {
		f, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		atMin = f.ResilienceMs[3][0]
	}
	b.ReportMetric(float64(atMin), "ts_resilience_conc3_kmin_ms")
}

func BenchmarkFig8HintsCondensing(b *testing.B) {
	s := suite()
	var worstCondensed int
	var worstCompression = 1.0
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		worstCondensed = 0
		worstCompression = 1
		for _, r := range rows {
			if r.Condensed > worstCondensed {
				worstCondensed = r.Condensed
			}
			if r.Compression < worstCompression {
				worstCompression = r.Compression
			}
		}
	}
	b.ReportMetric(float64(worstCondensed), "max_condensed_hints")
	b.ReportMetric(worstCompression*100, "min_compression_%")
}

func BenchmarkFig9SLOSweep(b *testing.B) {
	s := suite()
	var janusMean float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		janusMean = 0
		for _, r := range rows {
			janusMean += r.Janus / float64(len(rows))
		}
	}
	b.ReportMetric(janusMean, "mean_janus_vs_optimal")
}

func BenchmarkTable1OverallReduction(b *testing.B) {
	s := suite()
	var iaVsOrion, vaVsOrion float64
	for i := 0; i < b.N; i++ {
		t, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		iaVsOrion = t.Reduction["ia"][experiment.SysORION]
		vaVsOrion = t.Reduction["va"][experiment.SysORION]
	}
	b.ReportMetric(iaVsOrion, "ia_vs_orion_%")
	b.ReportMetric(vaVsOrion, "va_vs_orion_%")
}

func BenchmarkTable2WeightImpact(b *testing.B) {
	s := suite()
	var mc1, mc3 float64
	for i := 0; i < b.N; i++ {
		t, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		mc1, mc3 = t.MeanMillicores[1], t.MeanMillicores[3]
	}
	b.ReportMetric(mc1, "head_mc_weight1")
	b.ReportMetric(mc3, "head_mc_weight3")
}

// benchmarkEvaluationGrid serves the paper's full §V grid (4 panels × 7
// systems) from a cold cache: profiling, synthesis, and 28 discrete-event
// serving runs. The sequential and parallel variants do identical work —
// RunPoints guarantees identical results at every parallelism — so their
// ratio is the concurrent engine's wall-clock speedup.
func benchmarkEvaluationGrid(b *testing.B, parallelism int) {
	points, err := janus.EvaluationPoints()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := janus.NewQuickExperimentSuite()
		s.SetParallelism(parallelism)
		if _, err := s.RunPoints(points); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluationGridSequential(b *testing.B) { benchmarkEvaluationGrid(b, 1) }

func BenchmarkEvaluationGridParallel(b *testing.B) {
	benchmarkEvaluationGrid(b, runtime.GOMAXPROCS(0))
}

// BenchmarkMixedServing times the multi-tenant serving path in isolation:
// three tenants' pre-generated workloads (IA chain, VA chain, both under
// fixed allocators, plus a second VA stream) merged into one discrete-event
// run on a shared two-node cluster. Workload generation is outside the
// loop — the benchmark measures RunMixed itself: the merged event stream,
// shared warm pools, capacity parking, and per-tenant trace splitting.
func BenchmarkMixedServing(b *testing.B) { benchmarkMixedServing(b, nil) }

// BenchmarkMixedServingTraced is BenchmarkMixedServing with a flight
// recorder attached: the delta against the nil-tracer run is the whole
// cost of tracer-on observability on the serving hot path.
func BenchmarkMixedServingTraced(b *testing.B) {
	benchmarkMixedServing(b, obs.NewFlightRecorder(4096))
}

func benchmarkMixedServing(b *testing.B, tracer obs.Tracer) {
	coloc, err := janus.NewColocationSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		b.Fatal(err)
	}
	workload := func(w *janus.Workflow, seed uint64) []*janus.Request {
		reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
			Workflow: w, Functions: janus.Catalog(), N: 500, Batch: 1,
			ArrivalRatePerSec: 2, Colocation: coloc,
			Interference: janus.DefaultInterference(), StageCorrelation: 0.5, Seed: seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return reqs
	}
	cfg := janus.DefaultExecutorConfig()
	cfg.Cluster = janus.ClusterConfig{Nodes: 2, NodeMillicores: 26000, PoolSize: 6, IdleMillicores: 100}
	cfg.Tracer = tracer
	ex, err := janus.NewExecutor(cfg, janus.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	tenants := []janus.TenantWorkload{
		{Tenant: "ia", Requests: workload(janus.IntelligentAssistant(), 1),
			Allocator: &janus.FixedAllocator{System: "f", Sizes: []int{2000, 2000, 2000}}},
		{Tenant: "va", Requests: workload(janus.VideoAnalyze(), 2),
			Allocator: &janus.FixedAllocator{System: "f", Sizes: []int{1500, 1500, 1500}}},
		{Tenant: "va2", Requests: workload(janus.VideoAnalyze(), 3),
			Allocator: &janus.FixedAllocator{System: "f", Sizes: []int{2500, 2500, 2500}}},
	}
	b.ResetTimer()
	var served int
	for i := 0; i < b.N; i++ {
		out, err := ex.RunMixed(tenants)
		if err != nil {
			b.Fatal(err)
		}
		served = 0
		for _, traces := range out {
			served += len(traces)
		}
	}
	b.ReportMetric(float64(served), "requests_per_run")
}

// BenchmarkMixTenantScenario times the full multi-tenant experiment at
// paper scale through the shared suite: ia + va + va-sp under every mix
// system on the shared two-node cluster (first iteration pays profiling
// and synthesis; see the package comment).
func BenchmarkMixTenantScenario(b *testing.B) {
	s := suite()
	var worstViolation float64
	for i := 0; i < b.N; i++ {
		runs, err := s.MixScenario()
		if err != nil {
			b.Fatal(err)
		}
		worstViolation = 0
		for _, run := range runs {
			if run.Aggregate.ViolationRate > worstViolation {
				worstViolation = run.Aggregate.ViolationRate
			}
		}
	}
	b.ReportMetric(worstViolation*100, "worst_aggregate_violation_%")
}

// BenchmarkDAGScenario times the node-granular engine on the six-node
// ML-inference DAG: per-node readiness scheduling, a shared fork
// decision, the ocr cross path, and the in-degree-3 join, under every
// applicable system.
func BenchmarkDAGScenario(b *testing.B) {
	s := suite()
	var janusMC float64
	for i := 0; i < b.N; i++ {
		rows, err := s.DAGScenario()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "janus" {
				janusMC = r.MeanMillicores
			}
		}
	}
	b.ReportMetric(janusMC, "janus_mean_millicores")
}

func BenchmarkOverheadOnlineAdaptation(b *testing.B) {
	s := suite()
	// Build the deployment once; the benchmark then times raw decisions,
	// the §V-H "< 3 ms" metric.
	o, err := s.Overhead()
	if err != nil {
		b.Fatal(err)
	}
	d, err := s.Deployment(janus.IntelligentAssistant(), 1, janus.ModeJanus, 1)
	if err != nil {
		b.Fatal(err)
	}
	stages := d.Bundle().Stages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget := time.Duration(2000+i%3000) * time.Millisecond
		if _, err := d.Adapter.Decide(i%stages, budget); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(o.BundleBytes), "bundle_bytes")
}

// BenchmarkReplayScenario times the non-stationary replay grid: the
// burst+diurnal schedule over ia/va/dag under static pools, the elastic
// autoscaler, and the closed bilateral loop (online hint regeneration
// hot-swapping bundles mid-run). Every iteration builds a fresh suite:
// the shared one memoizes each run, so later iterations would time a
// cache lookup instead of the grid.
func BenchmarkReplayScenario(b *testing.B) {
	var closedAttainment float64
	for i := 0; i < b.N; i++ {
		runs, err := janus.NewExperimentSuite().ReplayScenario()
		if err != nil {
			b.Fatal(err)
		}
		for _, run := range runs {
			if run.Config == "autoscaler+regen" {
				closedAttainment = run.Aggregate.SLOAttainment
			}
		}
	}
	b.ReportMetric(closedAttainment*100, "closed_loop_slo_attainment_%")
}

// BenchmarkFleetScenario times the fleet-scale replay grid: the same
// non-stationary schedule at ~230k requests on a 200-node cluster, under
// every provider configuration. This is the workload the indexed cluster
// state is sized against; the BENCH_*.json files record its trajectory.
// Like BenchmarkReplayScenario, every iteration builds a fresh suite so
// each one serves the grid.
func BenchmarkFleetScenario(b *testing.B) {
	var closedAttainment float64
	for i := 0; i < b.N; i++ {
		runs, err := janus.NewExperimentSuite().FleetScenario()
		if err != nil {
			b.Fatal(err)
		}
		for _, run := range runs {
			if run.Config == "autoscaler+regen" {
				closedAttainment = run.Aggregate.SLOAttainment
			}
		}
	}
	b.ReportMetric(closedAttainment*100, "closed_loop_slo_attainment_%")
}
