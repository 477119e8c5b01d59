// Package janus is a from-scratch Go reproduction of "It Takes Two to
// Tango: Serverless Workflow Serving via Bilaterally Engaged Resource
// Adaptation" (IPDPS 2025): the Janus late-binding resource adaptation
// framework together with the entire serverless substrate it runs on.
//
// The package is a facade over the internal packages; everything a
// downstream user needs is exported here:
//
//   - define chain workflows with end-to-end latency SLOs (Workflow),
//   - profile their functions across CPU allocations and concurrency
//     levels (Deploy runs the offline Profiler),
//   - synthesize and condense hints tables (the Synthesizer, Algorithm 1
//     and 2 of the paper), optionally with head weights and the Janus- /
//     Janus+ exploration ablations,
//   - serve requests on the simulated serverless platform under Janus's
//     online Adapter or any of the paper's baselines (GrandSLAM,
//     GrandSLAM+, ORION, the clairvoyant Optimal),
//   - and regenerate every table and figure of the paper's evaluation
//     (ExperimentSuite, cmd/janusbench).
//
// Quickstart:
//
//	w := janus.IntelligentAssistant()                // OD -> QA -> TS, 3s SLO
//	coloc, _ := janus.NewColocationSampler([]float64{0.5, 0.35, 0.15})
//	dep, _ := janus.Deploy(w, janus.DeployOptions{
//		Functions:    janus.Catalog(),
//		Colocation:   coloc,
//		Interference: janus.DefaultInterference(),
//	})
//	reqs, _ := janus.GenerateWorkload(janus.WorkloadConfig{ ... })
//	ex, _ := janus.NewExecutor(janus.DefaultExecutorConfig(), janus.Catalog())
//	traces, _ := ex.Run(reqs, dep.Allocator("janus"))
package janus

import (
	"time"

	"janus/internal/adapter"
	"janus/internal/autoscale"
	"janus/internal/baseline"
	"janus/internal/catalog"
	"janus/internal/cluster"
	"janus/internal/core"
	"janus/internal/experiment"
	"janus/internal/hints"
	"janus/internal/httpapi"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/profile"
	"janus/internal/replay"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// Workflows.

// Workflow is a DAG of functions with an end-to-end latency SLO.
type Workflow = workflow.Workflow

// WorkflowNode is one step of a workflow.
type WorkflowNode = workflow.Node

// NewWorkflow builds and validates a workflow DAG.
func NewWorkflow(name string, slo time.Duration, nodes []WorkflowNode, edges [][2]string) (*Workflow, error) {
	return workflow.New(name, slo, nodes, edges)
}

// NewChain builds a linear workflow through the named catalog functions.
func NewChain(name string, slo time.Duration, functions ...string) (*Workflow, error) {
	return workflow.NewChain(name, slo, functions...)
}

// NewSeriesParallelWorkflow builds a fork-join workflow DAG: stages execute
// in order, the functions inside a stage run as concurrent branches, and
// every stage joins before the next starts. The serving plane executes
// such DAGs directly (per-branch pods, slowest-branch joins).
func NewSeriesParallelWorkflow(name string, slo time.Duration, stages [][]string) (*Workflow, error) {
	return workflow.NewSeriesParallel(name, slo, stages)
}

// ParseWorkflow decodes a JSON workflow spec (see workflow.Spec).
func ParseWorkflow(data []byte) (*Workflow, error) { return workflow.ParseSpec(data) }

// IntelligentAssistant returns the paper's IA evaluation chain
// (object detection -> question answering -> text-to-speech, 3 s SLO).
func IntelligentAssistant() *Workflow { return workflow.IntelligentAssistant() }

// VideoAnalyze returns the paper's VA evaluation chain
// (frame extraction -> image classification -> image compression, 1.5 s SLO).
func VideoAnalyze() *Workflow { return workflow.VideoAnalyze() }

// Functions and runtime dynamics.

// Function is a calibrated serverless function latency model.
type Function = perfmodel.Function

// FunctionParams configures a custom Function.
type FunctionParams = perfmodel.Params

// NewFunction validates params and builds a Function.
func NewFunction(p FunctionParams) (*Function, error) { return perfmodel.New(p) }

// Catalog returns the standard function models (the six workflow functions
// plus the four dominant-dimension micro functions), keyed by name.
func Catalog() map[string]*Function { return perfmodel.Catalog() }

// InterferenceModel maps co-location counts to latency slowdowns.
type InterferenceModel = interfere.Model

// DefaultInterference returns the Fig 1c calibration (up to 8.1x at six
// co-located network-bound instances).
func DefaultInterference() *InterferenceModel { return interfere.Default() }

// ColocationSampler draws per-invocation co-location counts.
type ColocationSampler = interfere.CountSampler

// NewColocationSampler builds a sampler; weights[i] is the probability
// weight of i+1 co-located instances.
func NewColocationSampler(weights []float64) (*ColocationSampler, error) {
	return interfere.NewCountSampler(weights)
}

// Profiles.

// Grid is the millicore allocation grid (paper: 1000-3000, step 100).
type Grid = profile.Grid

// DefaultGrid returns the paper's allocation grid.
func DefaultGrid() Grid { return profile.DefaultGrid() }

// FunctionProfile is the percentile latency table L(p, k) of one function
// at one concurrency level.
type FunctionProfile = profile.FunctionProfile

// ProfileSet bundles a chain workflow's per-stage profiles.
type ProfileSet = profile.Set

// Profiler collects execution-time distributions offline.
type Profiler = profile.Profiler

// NewProfiler builds a profiler over the given functions and contention
// mix.
func NewProfiler(fns map[string]*Function, coloc *ColocationSampler, im *InterferenceModel, seed uint64) (*Profiler, error) {
	return profile.NewProfiler(fns, coloc, im, seed)
}

// Hints and synthesis.

// Hint is one raw synthesizer output (budget -> allocation plan).
type Hint = hints.Hint

// HintsTable is a condensed <start, end, size> table for one sub-workflow.
type HintsTable = hints.Table

// Bundle is the developer-to-provider deployment artifact: one condensed
// table per sub-workflow suffix.
type Bundle = hints.Bundle

// ParseBundle decodes and validates a serialized bundle.
func ParseBundle(data []byte) (*Bundle, error) { return hints.ParseBundle(data) }

// Mode selects the synthesizer's percentile exploration strategy.
type Mode = synth.Mode

// Exploration modes: Janus explores head percentiles, JanusMinus fixes
// P99 everywhere, JanusPlus extends exploration to the next-to-head
// function.
const (
	ModeJanus      = synth.ModeJanus
	ModeJanusMinus = synth.ModeJanusMinus
	ModeJanusPlus  = synth.ModeJanusPlus
)

// Synthesizer generates and condenses hints tables (Algorithms 1 and 2).
type Synthesizer = synth.Synthesizer

// SynthesizerConfig parameterizes a Synthesizer.
type SynthesizerConfig = synth.Config

// NewSynthesizer validates the configuration and precomputes the
// downstream dynamic program.
func NewSynthesizer(cfg SynthesizerConfig) (*Synthesizer, error) { return synth.New(cfg) }

// Deployment pipeline.

// DeployOptions configures the developer's offline pipeline: profiling,
// synthesis and condensing. A deployment never regenerates on its own;
// OnlineRegen is the regeneration loop, and WithRegenerateCallback is the
// adapter's notification to the developer.
type DeployOptions = core.Options

// Deployment is a workflow deployed under Janus: its profiles and the live
// adapter serving the synthesized hints.
type Deployment = core.Deployment

// Deploy profiles the workflow, synthesizes hints, and starts the adapter.
func Deploy(w *Workflow, opts DeployOptions) (*Deployment, error) { return core.Deploy(w, opts) }

// DeployProfiled runs synthesis over existing profiles.
func DeployProfiled(set *ProfileSet, opts DeployOptions) (*Deployment, error) {
	return core.DeployProfiled(set, opts)
}

// Adapter is the provider-side online component.
type Adapter = adapter.Adapter

// Decision is one adaptation outcome.
type Decision = adapter.Decision

// NewAdapter builds an adapter over a validated bundle.
func NewAdapter(b *Bundle, opts ...AdapterOption) (*Adapter, error) { return adapter.New(b, opts...) }

// AdapterOption customizes an Adapter.
type AdapterOption = adapter.Option

// WithMissThreshold overrides the regeneration miss-rate threshold.
func WithMissThreshold(th float64) AdapterOption { return adapter.WithMissThreshold(th) }

// WithRegenerateCallback installs the developer-notification hook.
func WithRegenerateCallback(fn func(missRate float64)) AdapterOption {
	return adapter.WithRegenerateCallback(fn)
}

// Serving plane.

// Request is one workflow execution with pre-sampled runtime conditions:
// Draws holds one draw per workflow node in one flat slice, decision
// group by group and member by member. A request GenerateWorkload made
// also records the decision groups it was drawn for, so serving it under
// a workflow of another shape fails the run.
type Request = platform.Request

// Trace records one served request. It carries no tenant or system tag:
// RunMixed returns each tenant's traces under the tenant's name, and the
// system is the tenant's Allocator.Name().
type Trace = platform.Trace

// Allocator decides per-stage millicore allocations; serving systems are
// Allocator implementations.
type Allocator = platform.Allocator

// MemoizableAllocator marks an Allocator whose Allocate result is a pure
// function of (decision group, millisecond-floored remaining budget)
// within one epoch. The Executor memoizes such allocators across
// identical decision instants — repeated lookups skip Allocate and replay
// the allocator's bookkeeping through RecordCached with the true
// remaining budget, so every observable (stats, epoch windows, traces)
// stays byte-identical to unmemoized serving. The built-in Adapter
// allocators satisfy it; custom allocators opt in by implementing the two
// extra methods.
type MemoizableAllocator = platform.MemoizableAllocator

// FixedAllocator serves immutable per-stage sizes (early binding).
type FixedAllocator = platform.Fixed

// WorkloadConfig drives request generation.
type WorkloadConfig = platform.WorkloadConfig

// GenerateWorkload materializes a request sequence with pre-sampled draws.
func GenerateWorkload(cfg WorkloadConfig) ([]*Request, error) {
	return platform.GenerateWorkload(cfg)
}

// Executor serves workloads on a simulated cluster in virtual time. Run
// serves one workload; RunMixed merges several tenants' workloads — each
// paired with its own Allocator — into one discrete-event run on one
// shared cluster, so tenants contend for warm pods and node millicores.
// Interference is each request's pre-sampled draw.
type Executor = platform.Executor

// ExecutorConfig sizes the serving plane.
type ExecutorConfig = platform.ExecutorConfig

// DefaultExecutorConfig mirrors the paper's testbed (52-core node, warm
// pools, millisecond-scale decision overhead).
func DefaultExecutorConfig() ExecutorConfig { return platform.DefaultExecutorConfig() }

// NewExecutor validates the configuration and builds an executor.
func NewExecutor(cfg ExecutorConfig, fns map[string]*Function) (*Executor, error) {
	return platform.NewExecutor(cfg, fns)
}

// TenantWorkload is one tenant's contribution to a mixed run: a request
// stream paired with the serving system that sizes it (Executor.RunMixed).
type TenantWorkload = platform.TenantWorkload

// ClusterConfig sizes the simulated cluster substrate (node count,
// per-node millicores, warm-pool depth, placement policy); it is the
// Cluster field of ExecutorConfig.
type ClusterConfig = cluster.Config

// DefaultClusterConfig mirrors the paper's single 52-core platform server
// with a per-function warm pool of three pods.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// PlacementPolicy selects the node a new pod lands on; placement is
// deterministic so discrete-event runs replay byte for byte. It decides
// capacity, parking and cold starts, never a stage's latency: interference
// is drawn per request.
type PlacementPolicy = cluster.Placement

// Placement policies: spread puts each pod on the node with the most free
// millicores; first-fit packs the lowest-ID node that fits (consolidation,
// less fragmentation).
const (
	PlacementSpread   = cluster.PlacementSpread
	PlacementFirstFit = cluster.PlacementFirstFit
)

// Trace metrics.

// MeanMillicores reports the paper's resource-consumption metric.
func MeanMillicores(traces []Trace) float64 { return platform.MeanMillicores(traces) }

// SLOViolationRate reports the fraction of requests exceeding their SLO.
func SLOViolationRate(traces []Trace) float64 { return platform.SLOViolationRate(traces) }

// MissRate reports the fraction of hints-table misses across decisions.
func MissRate(traces []Trace) float64 { return platform.MissRate(traces) }

// Baselines.

// GrandSLAM sizes a chain with one identical allocation at P99.
func GrandSLAM(set *ProfileSet, slo time.Duration) (*FixedAllocator, error) {
	return baseline.GrandSLAM(set, slo)
}

// GrandSLAMPlus sizes each function independently at P99.
func GrandSLAMPlus(set *ProfileSet, slo time.Duration) (*FixedAllocator, error) {
	return baseline.GrandSLAMPlus(set, slo)
}

// ORIONConfig tunes the distribution-aware baseline.
type ORIONConfig = baseline.ORIONConfig

// ORION sizes a chain against the P99 of the convolved end-to-end latency
// distribution.
func ORION(set *ProfileSet, slo time.Duration, cfg ORIONConfig) (*FixedAllocator, error) {
	return baseline.ORION(set, slo, cfg)
}

// Optimal is the clairvoyant late-binding lower bound.
type Optimal = baseline.Optimal

// NewOptimal builds the oracle for a chain workflow.
func NewOptimal(w *Workflow, fns map[string]*Function, grid Grid, headroom time.Duration) (*Optimal, error) {
	return baseline.NewOptimal(w, fns, grid, headroom)
}

// Adapter service (the remote provider-side deployment).

// AdapterServer hosts adapters behind a JSON HTTP API.
type AdapterServer = httpapi.Server

// NewAdapterServer builds a server; opts apply to every adapter it hosts.
func NewAdapterServer(opts ...AdapterOption) *AdapterServer { return httpapi.NewServer(opts...) }

// AdapterClient talks to a remote adapter service.
type AdapterClient = httpapi.Client

// NewAdapterClient builds a client for the service at baseURL.
func NewAdapterClient(baseURL string) *AdapterClient { return httpapi.NewClient(baseURL) }

// RemoteAllocator serves platform allocations through a remote adapter.
type RemoteAllocator = httpapi.Allocator

// AdapterAPIError is a non-2xx control-plane response: the HTTP status,
// the stable machine code from the error envelope, and — on quota
// rejections — the server's Retry-After.
type AdapterAPIError = httpapi.APIError

// Control plane (janusd's declarative multi-tenant catalog).

// TenantCatalog is the declarative registry janusd serves: tenants,
// their workflows and hint bundles, API keys, and admission quotas, all
// validated as a whole and hot-swapped atomically.
type TenantCatalog = catalog.File

// CatalogTenant declares one tenant of a TenantCatalog.
type CatalogTenant = catalog.Tenant

// CatalogEntry is one deployable workflow under a tenant.
type CatalogEntry = catalog.Entry

// CatalogQuota is a tenant's token-bucket admission limit.
type CatalogQuota = catalog.Quota

// CatalogChange is one difference between two catalogs.
type CatalogChange = catalog.Change

// ParseCatalog decodes and fully validates a catalog file.
func ParseCatalog(data []byte) (*TenantCatalog, error) { return catalog.Parse(data) }

// DiffCatalogs reports the changes turning old into new would apply.
func DiffCatalogs(old, new *TenantCatalog) []CatalogChange { return catalog.Diff(old, new) }

// CatalogRegistry is the runtime registry serving a catalog: lock-free
// tenant authentication, adapter lookup, and quota admission off one
// atomic pointer, with all-or-nothing reloads.
type CatalogRegistry = catalog.Registry

// NewCatalogRegistry builds an empty registry; opts apply to every
// adapter it creates.
func NewCatalogRegistry(opts ...AdapterOption) *CatalogRegistry { return catalog.NewRegistry(opts...) }

// Arbitrary-DAG workflows (the node-granular engine): serving, profiling,
// and hints synthesis all operate on decision groups — nodes sharing an
// identical predecessor set, which become ready together and share one
// allocation decision — so chains and series-parallel workflows are mere
// special cases. A node starts the moment its predecessors complete;
// joins happen implicitly at nodes with in-degree > 1; each decision is
// made against the critical-path remaining budget and resolved by the
// hints table synthesized for the group's descendant cone.

// WorkflowGroup is one decision group of a workflow DAG (see
// Workflow.DecisionGroups).
type WorkflowGroup = workflow.Group

// NewDAGWorkflow builds and validates an arbitrary-DAG workflow: nodes
// are function invocations, edges are data dependencies, and any acyclic
// shape — partial joins, cross edges, multiple sinks — serves on the
// node-granular engine. It is NewWorkflow under the name the DAG serving
// surface documents.
func NewDAGWorkflow(name string, slo time.Duration, nodes []WorkflowNode, edges [][2]string) (*Workflow, error) {
	return workflow.New(name, slo, nodes, edges)
}

// MLInferenceDAG returns the arbitrary-DAG evaluation scenario: a
// six-node ML-inference pipeline (preprocess fanning out to detect and
// classify, detect additionally feeding ocr, an in-degree-3 join at fuse,
// then publish) whose cross edge admits no stage decomposition. SLO
// 1.3 s.
func MLInferenceDAG() *Workflow {
	w, err := experiment.DAGWorkflow()
	if err != nil {
		panic(err) // static construction; cannot fail
	}
	return w
}

// DAGRow summarizes one system of the DAG scenario
// (ExperimentSuite.DAGScenario; janusbench -experiment dag).
type DAGRow = experiment.DAGRow

// Experiments.

// ExperimentSuite reproduces the paper's tables and figures. Suite points
// — (system, workflow, batch) serving runs — fan out over a bounded worker
// pool (ExperimentSuite.RunPoints, bounded by SetParallelism); results are
// identical at every parallelism because requests carry pre-sampled
// runtime conditions.
type ExperimentSuite = experiment.Suite

// ExperimentConfig scales an ExperimentSuite.
type ExperimentConfig = experiment.Config

// NewExperimentSuite returns a paper-scale suite (1000 requests per point,
// 1 ms budget sweeps).
func NewExperimentSuite() *ExperimentSuite { return experiment.NewSuite() }

// NewQuickExperimentSuite returns a reduced-scale suite for fast runs.
func NewQuickExperimentSuite() *ExperimentSuite { return experiment.QuickSuite() }

// ExperimentPoint identifies one suite point: one serving system executing
// one workload (workflow at an SLO, batch size).
type ExperimentPoint = experiment.Point

// EvaluationPoints enumerates the paper's full §V serving grid (every
// evaluation panel crossed with every system) as suite points.
func EvaluationPoints() ([]ExperimentPoint, error) { return experiment.EvaluationPoints() }

// Multi-tenant experiments: the IA chain, VA chain, and series-parallel
// Video Analyze served as one merged arrival stream on a shared
// multi-node cluster (ExperimentSuite.MixScenario, MixScaleOut,
// MixPlacement; janusbench -experiment mix).

// MixTenant pairs a tenant name with the workflow it serves in the
// tenant-mix scenario.
type MixTenant = experiment.MixTenant

// MixExperimentTenants returns the scenario's tenants: ia (3 s SLO), va
// (1.5 s), and va-sp (1.1 s). VA and VA-SP share functions, so their pods
// draw from the same warm pools.
func MixExperimentTenants() ([]MixTenant, error) { return experiment.MixTenants() }

// MixRun is one mixed serving run: every tenant under one system on one
// shared cluster, with per-tenant and aggregate summaries split out of
// the mixed trace set.
type MixRun = experiment.MixRun

// MixTenantRow summarizes one tenant's share of a mixed trace set.
type MixTenantRow = experiment.MixTenantRow

// Non-stationary replay and the online bilateral loop: a phase-based load
// generator (ReplaySchedule) materializes a deterministic bursty/diurnal
// arrival stream that Executor.RunReplay serves with a control loop
// interleaved on the same virtual clock — the elastic warm-pool
// Autoscaler retargets per-function pools each interval (scale-up pods
// pay the full cold start before serving anyone), and OnlineRegen
// hot-swaps a tenant's hint bundle mid-run when drifted budgets push the
// adapter's epoch miss rate over the threshold.

// ReplaySchedule composes phases (ramp, plateau, burst, diurnal sine),
// each with its own arrival rate and tenant mix, into one deterministic
// seeded arrival stream (Arrivals).
type ReplaySchedule = replay.Schedule

// ReplayPhase is one segment of a replay schedule.
type ReplayPhase = replay.Phase

// ReplayTenantShare weights one tenant in a phase's traffic mix.
type ReplayTenantShare = replay.TenantShare

// ReplayArrival is one admitted request of a materialized stream.
type ReplayArrival = replay.Arrival

// NewReplaySchedule validates the phases and default tenant mix and
// builds a schedule.
func NewReplaySchedule(seed uint64, mix []ReplayTenantShare, phases ...ReplayPhase) (*ReplaySchedule, error) {
	return replay.NewSchedule(seed, mix, phases...)
}

// Replay phase constructors.

// ReplayPlateau returns a constant-rate phase.
func ReplayPlateau(d time.Duration, rate float64) ReplayPhase { return replay.Plateau(d, rate) }

// ReplayRamp returns a linear-rate phase from `from` to `to`.
func ReplayRamp(d time.Duration, from, to float64) ReplayPhase { return replay.Ramp(d, from, to) }

// ReplayBurst returns a baseline-rate phase whose middle third spikes to
// peak.
func ReplayBurst(d time.Duration, base, peak float64) ReplayPhase { return replay.Burst(d, base, peak) }

// ReplayDiurnal returns a sinusoidal phase oscillating between trough and
// peak with the given period.
func ReplayDiurnal(d time.Duration, trough, peak float64, period time.Duration) ReplayPhase {
	return replay.Diurnal(d, trough, peak, period)
}

// ReplayZipfMix spreads tenant weights by the Zipf popularity law the
// azure trace generator is calibrated to (the first tenant dominates).
func ReplayZipfMix(tenants ...string) []ReplayTenantShare { return replay.ZipfMix(tenants...) }

// ReplayTenantArrivalTimes splits a stream into per-tenant admission
// instants — the WorkloadConfig.Arrivals input for each tenant's
// GenerateWorkload call.
func ReplayTenantArrivalTimes(arrivals []ReplayArrival) map[string][]time.Duration {
	return replay.TenantArrivalTimes(arrivals)
}

// ReplayConfig drives Executor.RunReplay's control loop (interval,
// horizon, pool controller, OnTick hook).
type ReplayConfig = platform.ReplayConfig

// ReplayMetrics summarizes a replay run's provisioning cost: pod-seconds,
// peak pods, pool churn.
type ReplayMetrics = platform.ReplayMetrics

// ReplayFunctionStats is one function's demand snapshot at a control
// instant (busy/warm pods, queued acquisitions, cold starts).
type ReplayFunctionStats = platform.ReplayFunctionStats

// ReplayAction is a deferred effect an OnTick hook schedules on the run's
// virtual clock.
type ReplayAction = platform.ReplayAction

// PoolController recomputes per-function warm-pool targets each control
// interval; Autoscaler is the standard implementation.
type PoolController = platform.PoolController

// Autoscaler is the elastic warm-pool controller: it grows a pool by its
// cold-start deficit when it ran dry, sheds idle pods when acquisitions
// park on exhausted node capacity (the queue warm pods cannot fix), and
// otherwise drains low-occupancy pools after a cooldown — clamped to
// [MinPool, MaxPool].
type Autoscaler = autoscale.Autoscaler

// AutoscalerConfig parameterizes an Autoscaler.
type AutoscalerConfig = autoscale.Config

// NewAutoscaler validates the configuration and builds a controller
// (one per replay run — it carries per-run cooldown state).
func NewAutoscaler(cfg AutoscalerConfig) (*Autoscaler, error) { return autoscale.New(cfg) }

// DefaultAutoscalerConfig returns a general-purpose controller setting
// (pools breathing 1..12 with a 10 s cooldown); the suite's replay
// experiment tunes its own AutoscalerConfig to its schedule.
func DefaultAutoscalerConfig() AutoscalerConfig { return autoscale.DefaultConfig() }

// OnlineRegen is the one regeneration loop: during a replay it watches an
// adapter's epoch miss rate, and once the rate crosses the paper's 1% it
// re-synthesizes the hint bundle against the observed (drifted) budget
// distribution and hot-swaps it via the adapter's atomic Replace after a
// virtual regeneration latency. It runs on the replay's virtual clock, so
// a run with it replays byte for byte. Plug its Tick into
// ReplayConfig.OnTick.
type OnlineRegen = autoscale.Regen

// OnlineRegenConfig parameterizes an OnlineRegen hook.
type OnlineRegenConfig = autoscale.RegenConfig

// BundleSwap records one hint-bundle hot-swap of a replay run: the swap
// instant, the triggering miss rate, and the observed budget floor.
type BundleSwap = autoscale.Swap

// NewOnlineRegen validates the configuration and builds the hook.
func NewOnlineRegen(cfg OnlineRegenConfig) (*OnlineRegen, error) { return autoscale.NewRegen(cfg) }

// Replay experiment surface (ExperimentSuite.ReplayScenario; janusbench
// -experiment replay).

// ReplayRow summarizes one tenant's share of a replay run (or the
// aggregate across tenants).
type ReplayRow = experiment.ReplayRow

// ReplayRun is one replay serving run: the full tenant stream under one
// provider configuration, with per-tenant rows, provisioning metrics,
// and the hint-bundle hot-swap record.
type ReplayRun = experiment.ReplayRun

// Fleet-scale replay (ExperimentSuite.FleetScenario; janusbench
// -experiment fleet): the replay scenario's non-stationary shape at
// hundreds of nodes and hundreds of thousands of requests in one
// discrete-event run — the workload the indexed cluster state is sized
// against, and the one the BENCH_*.json trajectory files track.

// Fleet cluster dimensions: two hundred nodes of the replay scenario's
// size, so the fleet is exactly a 100x wider replay substrate.
const (
	FleetNodes          = experiment.FleetNodes
	FleetNodeMillicores = experiment.FleetNodeMillicores
)

// Dynamic trigger-based orchestration: workflows whose shape resolves at
// run time. The static DAG stays the skeleton; dynamic annotations mark
// a node as a conditional fork (exactly one successor branch survives),
// a bounded data-dependent map (replica width drawn at the fork's
// readiness instant), a bounded retry, or an awaited join resumed by an
// external trigger on the replay engine's virtual clock. Profiling
// measures every resolvable shape, synthesis emits per-(group, shape)
// hint-table variants alongside the conservative base, and the serving
// plane passes each decision group's already-resolved shape key to
// shape-aware allocators. Static workflows are the special case with no
// annotations: their groups, profiles, hints, and traces are unchanged
// byte for byte.

// DynamicNode annotates one workflow step with dynamic behavior.
type DynamicNode = workflow.DynamicNode

// ChoiceSpec marks a node as a conditional fork: exactly one successor
// branch survives, drawn from the weights at workload generation.
type ChoiceSpec = workflow.ChoiceSpec

// MapSpec marks a node as a bounded data-dependent map: the replica
// width is drawn in [1, MaxWidth] per request.
type MapSpec = workflow.MapSpec

// RetrySpec marks a node as retried: each replica re-executes (with a
// fresh allocation decision) up to MaxRetries times.
type RetrySpec = workflow.RetrySpec

// Dynamic-annotation bounds (see workflow.NewDynamic validation).
const (
	MaxMapWidth   = workflow.MaxMapWidth
	MaxRetryBound = workflow.MaxRetryBound
)

// NewDynamicWorkflow builds and validates a dynamic workflow: the static
// DAG skeleton plus dynamic annotations. With no annotations it is
// exactly NewDAGWorkflow.
func NewDynamicWorkflow(name string, slo time.Duration, nodes []WorkflowNode, edges [][2]string, dynamic []DynamicNode) (*Workflow, error) {
	return workflow.NewDynamic(name, slo, nodes, edges, dynamic)
}

// ExternalTrigger is one external event on a replay run's virtual clock —
// a timer or stream event that starts a request (admission at the fire
// instant) or resumes it at an await step. Arm them through
// ReplayRunConfig.Triggers.
type ExternalTrigger = platform.Trigger

// ShapeAwareAllocator is an Allocator that exploits the parts of a
// dynamic workflow's shape already resolved at a decision instant;
// adapter.Allocator implements it over shape-variant hint tables.
type ShapeAwareAllocator = platform.ShapeAwareAllocator

// Trigger experiment surface (ExperimentSuite.TriggerScenario;
// janusbench -experiment trigger): the dynamic ML-inference DAG —
// conditional fork, data-dependent OCR map with retries, timer-resumed
// gate — served under static worst-case vs online shape-aware planning
// with the identical shape-variant bundle, request stream, and trigger
// queue.

// TriggerExperimentWorkflow returns the trigger scenario's dynamic
// workflow.
func TriggerExperimentWorkflow() *Workflow {
	w, err := experiment.TriggerWorkflow()
	if err != nil {
		panic(err) // static construction; cannot fail
	}
	return w
}

// TriggerRun is one trigger serving run: the dynamic stream under one
// provider configuration, with per-shape-segment rows.
type TriggerRun = experiment.TriggerRun

// FormatTriggerRuns renders the trigger scenario's comparison table.
func FormatTriggerRuns(runs []*TriggerRun) string { return experiment.FormatTrigger(runs) }
