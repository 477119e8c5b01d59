// Package experiment reproduces every table and figure in the paper's
// evaluation (§II and §V). Each driver returns a typed result whose
// String() prints the same rows/series the paper reports; cmd/janusbench
// exposes them on the command line and the repository-root benchmarks run
// them under `go test -bench`.
//
// All drivers hang off a Suite, which remembers the expensive shared
// artifacts — function profiles, Janus deployments, workloads, serving
// runs — so that sweeps (SLOs, weights, concurrency) reuse them exactly
// as a real developer would.
package experiment

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"janus/internal/baseline"
	"janus/internal/cluster"
	"janus/internal/core"
	"janus/internal/flight"
	"janus/internal/interfere"
	"janus/internal/obs"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/profile"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// The serving systems compared throughout §V.
const (
	SysOptimal    = "optimal"
	SysORION      = "orion"
	SysGrandSLAM  = "grandslam"
	SysGrandSLAMP = "grandslam+"
	SysJanus      = "janus"
	SysJanusMinus = "janus-"
	SysJanusPlus  = "janus+"
)

// AllSystems lists every system in the paper's display order.
func AllSystems() []string {
	return []string{SysOptimal, SysORION, SysJanus, SysJanusPlus, SysJanusMinus, SysGrandSLAMP, SysGrandSLAM}
}

// suitePoolSize is the per-function warm-pool depth every suite serving
// run uses. It is deliberately twice cluster.DefaultConfig's PoolSize of 3
// (the paper's §V-A Fission PoolManager setting): the suite's arrival-rate
// and tenant-mix sweeps push admission well past the steady load the paper
// serves, and a 3-pod pool conflates cold-start queueing with the
// allocation effects under study. Doubling the pool keeps cold starts a
// measured consequence of pressure rather than the dominant signal, while
// single-workflow points behave identically to the paper's setting.
const suitePoolSize = 6

// StageCorrelation is the mixture-copula coupling of runtime conditions
// across a request's stages used by all serving experiments (see
// platform.WorkloadConfig.StageCorrelation). ORION's end-to-end estimator
// uses the same value — modeling the workflow distribution is its premise.
const StageCorrelation = 0.5

// Config scales the suite. The zero value is not valid; use NewSuite or
// QuickSuite.
type Config struct {
	// Seed roots every random stream in the suite.
	Seed uint64
	// ProfilerSamples is the per-(k, batch) profiling sample count.
	ProfilerSamples int
	// BudgetStepMs is the synthesis sweep granularity.
	BudgetStepMs int
	// Requests is the per-point request count (paper: 1000).
	Requests int
	// ArrivalRatePerSec is the Poisson workload rate.
	ArrivalRatePerSec float64
}

// NewSuite returns a paper-scale suite: 1000 requests per point, 2000
// profiling samples per cell, 1 ms budget sweeps.
func NewSuite() *Suite {
	return NewSuiteWith(Config{
		Seed:              1,
		ProfilerSamples:   2000,
		BudgetStepMs:      1,
		Requests:          1000,
		ArrivalRatePerSec: 2,
	})
}

// QuickSuite returns a reduced-scale suite for unit tests: the same code
// paths at roughly 20x less work.
func QuickSuite() *Suite {
	return NewSuiteWith(Config{
		Seed:              1,
		ProfilerSamples:   600,
		BudgetStepMs:      20,
		Requests:          200,
		ArrivalRatePerSec: 2,
	})
}

// NewSuiteWith builds a suite from an explicit config.
func NewSuiteWith(cfg Config) *Suite {
	return &Suite{
		cfg:       cfg,
		functions: perfmodel.Catalog(),
		interf:    interfere.Default(),
	}
}

// Suite carries shared state across experiment drivers. All methods are
// safe for concurrent use: artifacts are filled through a memoizing
// singleflight group, so parallel workers needing the same artifact
// compute it exactly once.
type Suite struct {
	cfg       Config
	functions map[string]*perfmodel.Function
	interf    *interfere.Model

	// flights remembers every artifact the suite has built (see memo).
	flights flight.Group

	mu         sync.Mutex
	parallel   int        // point-level parallelism (SetParallelism)
	obsTracer  obs.Tracer // event sink attached to replay serving runs (SetTracer)
	obsMetrics *obs.Registry
}

// memo returns the suite's artifact for key, building it with fn on first
// use. Concurrent callers of one key share a single fn call, and a failed
// build is not remembered, so the next caller retries. Every key starts
// with its artifact kind ("profiles/", "point/", ...), so keys of
// different kinds — and therefore different types — never collide.
func memo[T any](s *Suite, key string, fn func() (T, error)) (T, error) {
	v, err := s.flights.Do(key, func() (any, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// SetParallelism bounds how many suite points and scenario runs execute
// concurrently (fanOut's worker pool; cmd/janusbench's -parallelism flag
// lands here); n <= 0 restores the default (GOMAXPROCS). Results are
// identical at every setting — points are independent by construction —
// so this trades only wall-clock time, never fidelity.
func (s *Suite) SetParallelism(n int) {
	s.mu.Lock()
	s.parallel = n
	s.mu.Unlock()
}

// SetTracer attaches an observability sink to every replay serving run
// the suite executes from now on (cmd/janusbench's -trace flag lands
// here). Each run's events arrive scoped "scenario/config" via
// obs.WithScope. Concurrent runs (parallelism > 1) interleave their
// scopes on the shared sink, so the sink must be goroutine-safe;
// obs.NDJSONWriter, obs.Timeline, and obs.Collector are. Tracers only
// observe — attaching one leaves every result byte-identical (pinned by
// TestReplayTracerDoesNotPerturb). nil detaches.
func (s *Suite) SetTracer(t obs.Tracer) {
	s.mu.Lock()
	s.obsTracer = t
	s.mu.Unlock()
}

// tracer resolves the suite's attached event sink (nil when tracing is
// off — the serving engine's zero-cost default).
func (s *Suite) tracer() obs.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obsTracer
}

// SetMetrics attaches a metrics registry to every replay serving run the
// suite executes from now on: per-tenant decision/escalation counters and
// latency histograms, park-depth and pool-occupancy gauges. Handles are
// lock-free atomics, so concurrent runs may share one registry (their
// counts merge). nil detaches.
func (s *Suite) SetMetrics(r *obs.Registry) {
	s.mu.Lock()
	s.obsMetrics = r
	s.mu.Unlock()
}

// metrics resolves the suite's attached registry (nil when off).
func (s *Suite) metrics() *obs.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obsMetrics
}

// parallelism resolves the effective worker-pool bound.
func (s *Suite) parallelism() int {
	s.mu.Lock()
	n := s.parallel
	s.mu.Unlock()
	if n <= 0 {
		n = defaultParallelism()
	}
	return n
}

// fanOut runs fn(0), ..., fn(n-1) over at most the suite's parallelism
// worker goroutines and returns the results in input order, or the
// lowest-index error, so neither depends on completion order. It is the
// suite's one worker pool: RunPoints and every scenario driver fan out
// through it, and shared artifacts go through the suite's memo, so the
// first worker to need one builds it and the rest wait and share it.
func fanOut[T any](s *Suite, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	par := min(s.parallelism(), n)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// colocationFor returns the co-location mix each workflow's pods see: IA
// under moderate load, VA (chain and series-parallel form alike) with its
// per-function parallelism (§V-A).
func (s *Suite) colocationFor(wf string) *interfere.CountSampler {
	var weights []float64
	switch wf {
	case "va", SPWorkflowName, DAGWorkflowName:
		weights = []float64{0.4, 0.4, 0.2}
	default:
		weights = []float64{0.5, 0.35, 0.15}
	}
	cs, err := interfere.NewCountSampler(weights)
	if err != nil {
		panic(err) // static weights; cannot fail
	}
	return cs
}

// Profiles returns the profiles for a workflow at a batch size through
// the node-granular profiler: chains run the per-function profiler (raw
// samples retained for ORION); every other DAG profiles one
// max-over-members composite per decision group — fork-join stages and
// arbitrary-DAG forks alike. Each (workflow, batch) is profiled once.
func (s *Suite) Profiles(w *workflow.Workflow, batch int) (*profile.Set, error) {
	return memo(s, fmt.Sprintf("profiles/%s/b%d", w.Name(), batch), func() (*profile.Set, error) {
		prof, err := profile.NewProfiler(s.functions, s.colocationFor(w.Name()), s.interf, s.cfg.Seed)
		if err != nil {
			return nil, err
		}
		prof.SamplesPerConfig = s.cfg.ProfilerSamples
		return prof.ProfileWorkflow(w, batch)
	})
}

// Deployment returns the Janus deployment for a workflow, batch, mode,
// and weight, built once per distinct tuple. Hints tables are keyed by
// remaining budget, so one deployment serves every SLO in a sweep.
func (s *Suite) Deployment(w *workflow.Workflow, batch int, mode synth.Mode, weight float64) (*core.Deployment, error) {
	key := fmt.Sprintf("deployment/%s/b%d/%v/w%s", w.Name(), batch, mode, strconv.FormatFloat(weight, 'g', -1, 64))
	return memo(s, key, func() (*core.Deployment, error) {
		set, err := s.Profiles(w, batch)
		if err != nil {
			return nil, err
		}
		return core.DeployProfiled(set, core.Options{
			Batch:        batch,
			Weight:       weight,
			Mode:         mode,
			BudgetStepMs: s.cfg.BudgetStepMs,
		})
	})
}

// Workload returns the (cached) request sequence for a workflow and batch
// at the suite's configured arrival rate. Draws are independent of SLO and
// serving system, so every system and every SLO point faces identical
// runtime conditions.
func (s *Suite) Workload(w *workflow.Workflow, batch int) ([]*platform.Request, error) {
	return s.WorkloadAtRate(w, batch, 0)
}

// WorkloadAtRate is Workload at an explicit Poisson arrival rate; rate <= 0
// uses the suite's configured rate. Workloads are cached per (workflow,
// batch, rate), and draws do not depend on the rate — an arrival-rate sweep
// subjects the identical request sequence to increasing admission pressure.
func (s *Suite) WorkloadAtRate(w *workflow.Workflow, batch int, rate float64) ([]*platform.Request, error) {
	if rate <= 0 {
		rate = s.cfg.ArrivalRatePerSec
	}
	return memo(s, fmt.Sprintf("workload/%s/b%d/r%g", w.Name(), batch, rate), func() ([]*platform.Request, error) {
		return platform.GenerateWorkload(platform.WorkloadConfig{
			Workflow:          w,
			Functions:         s.functions,
			N:                 s.cfg.Requests,
			Batch:             batch,
			ArrivalRatePerSec: rate,
			Colocation:        s.colocationFor(w.Name()),
			Interference:      s.interf,
			StageCorrelation:  StageCorrelation,
			Seed:              s.cfg.Seed,
		})
	})
}

// executorConfig is the serving plane every suite run builds on: the
// default startup and decision costs over nodes nodes of nodeMc
// millicores each, pool warm pods per function, and the given placement.
func (s *Suite) executorConfig(nodes, nodeMc, pool int, placement cluster.Placement) platform.ExecutorConfig {
	cfg := platform.DefaultExecutorConfig()
	cfg.Cluster = cluster.Config{Nodes: nodes, NodeMillicores: nodeMc, PoolSize: pool, IdleMillicores: 100, Placement: placement}
	return cfg
}

// executor returns the serving plane of single-workflow points: one
// 52-core node, the paper's platform server. Every worker shares it —
// each Run builds its own cluster and event engine, so concurrent Runs
// on one Executor are safe.
func (s *Suite) executor() (*platform.Executor, error) {
	return memo(s, "executor", func() (*platform.Executor, error) {
		return platform.NewExecutor(s.executorConfig(1, 52000, suitePoolSize, cluster.PlacementSpread), s.functions)
	})
}

// allocator materializes a serving system for (workflow, batch, slo).
func (s *Suite) allocator(system string, w *workflow.Workflow, batch int) (platform.Allocator, error) {
	set, err := s.Profiles(w, batch)
	if err != nil {
		return nil, err
	}
	switch system {
	case SysOptimal:
		// Headroom covers per-decision platform costs outside function
		// execution: the adapter decision and warm-pod specialization.
		headroom := time.Duration(len(w.DecisionGroups())) * 4 * time.Millisecond
		return baseline.NewOptimal(w, s.functions, set.At(0).Grid, headroom)
	case SysORION:
		return baseline.ORION(set, w.SLO(), baseline.ORIONConfig{Seed: s.cfg.Seed, Correlation: StageCorrelation})
	case SysGrandSLAM:
		return baseline.GrandSLAM(set, w.SLO())
	case SysGrandSLAMP:
		return baseline.GrandSLAMPlus(set, w.SLO())
	case SysJanus, SysJanusMinus, SysJanusPlus:
		mode := synth.ModeJanus
		switch system {
		case SysJanusMinus:
			mode = synth.ModeJanusMinus
		case SysJanusPlus:
			mode = synth.ModeJanusPlus
		}
		d, err := s.Deployment(w, batch, mode, 1)
		if err != nil {
			return nil, err
		}
		return d.Allocator(system), nil
	default:
		return nil, fmt.Errorf("experiment: unknown system %q", system)
	}
}

// SystemRun summarizes one (system, workload point) serving run.
type SystemRun struct {
	System         string
	Traces         []platform.Trace
	MeanMillicores float64
	P50E2E         time.Duration
	P99E2E         time.Duration
	ViolationRate  float64
	MissRate       float64
	SLO            time.Duration
	// Decisions is the mean allocation decisions per request; ColdStarts
	// and Parked total the substrate events across the run.
	Decisions  float64
	ColdStarts int
	Parked     int
}

// summary is one trace set's reduction — the numbers every scenario row
// reports.
type summary struct {
	P50, P99       time.Duration
	ViolationRate  float64
	MeanMillicores float64
	MissRate       float64
	// Decisions is the mean allocation decisions per request.
	Decisions  float64
	ColdStarts int
	Parked     int
}

// summarize is the suite's one trace reduction: it feeds SystemRun,
// MixTenantRow and ReplayRow. Violation is per trace against its own
// SLO, so a merged set of tenants with different objectives still
// reduces meaningfully.
func summarize(traces []platform.Trace) summary {
	e2e := platform.E2ESample(traces)
	sum := summary{
		P50:            e2e.PercentileDuration(50),
		P99:            e2e.PercentileDuration(99),
		ViolationRate:  platform.SLOViolationRate(traces),
		MeanMillicores: platform.MeanMillicores(traces),
		MissRate:       platform.MissRate(traces),
	}
	decisions := 0
	for i := range traces {
		decisions += traces[i].Decisions
		sum.Parked += traces[i].Parked
		for _, st := range traces[i].Stages {
			if st.Cold {
				sum.ColdStarts++
			}
		}
	}
	if len(traces) > 0 {
		sum.Decisions = float64(decisions) / float64(len(traces))
	}
	return sum
}

// RunPoint serves the workload under each system and summarizes. Results
// are cached per (workflow, SLO, batch, system): figure drivers share
// runs. Uncached systems fan out over the suite's worker pool.
func (s *Suite) RunPoint(w *workflow.Workflow, batch int, systems []string) (map[string]*SystemRun, error) {
	points := make([]Point, len(systems))
	for i, system := range systems {
		points[i] = Point{Workflow: w, Batch: batch, System: system}
	}
	runs, err := s.RunPoints(points)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*SystemRun, len(systems))
	for i, run := range runs {
		out[points[i].System] = run
	}
	return out, nil
}

// RunPoints serves the points over the suite's worker pool and returns
// results in input order, so a run at any parallelism is byte-identical
// to the sequential one — the paired-comparison property the paper's
// normalized numbers rely on. Every figure driver sits on it. On failure
// it reports the lowest-index failing point.
func (s *Suite) RunPoints(points []Point) ([]*SystemRun, error) {
	for i, p := range points {
		if p.Workflow == nil {
			return nil, fmt.Errorf("experiment: point %d has no workflow", i)
		}
		if p.Batch <= 0 {
			return nil, fmt.Errorf("experiment: point %d (%s) has batch %d", i, p, p.Batch)
		}
	}
	if len(points) == 0 {
		return nil, nil
	}
	return fanOut(s, len(points), func(i int) (*SystemRun, error) {
		run, err := s.runPointOne(points[i])
		if err != nil {
			return nil, fmt.Errorf("experiment: point %s: %w", points[i], err)
		}
		return run, nil
	})
}

// runPointOne serves one (workflow, batch, system) point once; concurrent
// callers of the same point share one serving run.
func (s *Suite) runPointOne(p Point) (*SystemRun, error) {
	w := p.Workflow
	rate := p.ArrivalRatePerSec
	if rate <= 0 {
		rate = s.cfg.ArrivalRatePerSec
	}
	key := fmt.Sprintf("point/%s/%v/b%d/r%g/%s", w.Name(), w.SLO(), p.Batch, rate, p.System)
	return memo(s, key, func() (*SystemRun, error) {
		reqs, err := s.WorkloadAtRate(w, p.Batch, rate)
		if err != nil {
			return nil, err
		}
		// Requests carry the sweep SLO via their workflow reference.
		pointReqs := make([]*platform.Request, len(reqs))
		for i, r := range reqs {
			cp := *r
			cp.Workflow = w
			pointReqs[i] = &cp
		}
		alloc, err := s.allocator(p.System, w, p.Batch)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on %s: %w", p.System, w.Name(), err)
		}
		ex, err := s.executor()
		if err != nil {
			return nil, err
		}
		traces, err := ex.Run(pointReqs, alloc)
		if err != nil {
			return nil, fmt.Errorf("experiment: serving %s on %s: %w", p.System, w.Name(), err)
		}
		sum := summarize(traces)
		return &SystemRun{
			System:         p.System,
			Traces:         traces,
			MeanMillicores: sum.MeanMillicores,
			P50E2E:         sum.P50,
			P99E2E:         sum.P99,
			ViolationRate:  sum.ViolationRate,
			MissRate:       sum.MissRate,
			SLO:            w.SLO(),
			Decisions:      sum.Decisions,
			ColdStarts:     sum.ColdStarts,
			Parked:         sum.Parked,
		}, nil
	})
}
