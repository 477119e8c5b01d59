package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"janus/internal/adapter"
	"janus/internal/autoscale"
	"janus/internal/cluster"
	"janus/internal/hints"
	"janus/internal/obs"
	"janus/internal/platform"
	"janus/internal/replay"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// The non-stationary replay scenario: every other experiment in the suite
// serves a stationary workload (fixed batch or constant-rate Poisson)
// against statically sized warm pools. Here the ia/va/dag catalog is
// served as one bursty, diurnal arrival stream (internal/replay) under
// three provider configurations — statically sized pools, the elastic
// warm-pool autoscaler, and the autoscaler with the online bilateral loop
// closed (miss-rate-triggered hint regeneration hot-swapped mid-run) — so
// the comparison is provisioning policy against the identical request
// sequence: SLO attainment vs pod-seconds.

// Replay provider configurations, in display order.
const (
	// ReplayStatic serves on statically sized warm pools (the paper's
	// Fission PoolManager default of 3 pods per function): too shallow in
	// the burst, needlessly warm in the trough.
	ReplayStatic = "static"
	// ReplayAutoscale adds the elastic warm-pool controller.
	ReplayAutoscale = "autoscaler"
	// ReplayAutoscaleRegen additionally closes the bilateral loop online:
	// when drifted budgets push the adapter's epoch miss rate over the
	// threshold, the hint bundle is re-synthesized against the observed
	// budget floor and hot-swapped mid-run.
	ReplayAutoscaleRegen = "autoscaler+regen"
)

// ReplayConfigs lists the replay scenario's provider configurations.
func ReplayConfigs() []string {
	return []string{ReplayStatic, ReplayAutoscale, ReplayAutoscaleRegen}
}

const (
	// ReplayInterval is the control-loop period: pool retargeting, regen
	// checks, and pod-seconds sampling all run at this cadence.
	ReplayInterval = 500 * time.Millisecond
	// ReplayNodeMillicores sizes each replay-cluster node tighter than the
	// tenant-mix scenario (MixNodeMillicores): the burst is meant to push
	// the substrate into genuine capacity contention, where every
	// needlessly escalated pod parks somebody else's acquisition — the
	// regime that separates right-sized adaptation from ceiling
	// escalation. It matches MixNodeMillicores today; the constant keeps
	// the replay cluster independently tunable.
	ReplayNodeMillicores = 26000
	// replayPoolSize is the per-function warm-pool depth every replay
	// configuration deploys with — the paper's §V-A Fission PoolManager
	// setting of 3 (cluster.DefaultConfig), not the suite's deepened
	// suitePoolSize: the replay scenario measures what provisioning
	// policy does under non-stationary load, and the paper-faithful
	// static configuration is the baseline it falls over from — pools
	// that run dry at every diurnal peak yet sit warm through every
	// trough. The elastic configurations start from the same depth and
	// let the controller breathe between replayMinPool and replayMaxPool.
	replayPoolSize = 3
	// replayMinPool/replayMaxPool clamp the autoscaler's per-function
	// pool targets: it may drain a quiet pool below the static depth and
	// grow a pressured one well past it.
	replayMinPool = 2
	replayMaxPool = 6
	// replayRegenLatency is the virtual delay between miss-rate detection
	// and the regenerated bundle's hot-swap (the asynchronous
	// profiling+synthesis run in the modeled world).
	replayRegenLatency = 2 * time.Second
	// replayRegenMinDecisions is how many epoch decisions must accumulate
	// before the miss rate is trusted mid-run.
	replayRegenMinDecisions = 30
	// replayMaxBurst caps the burst phase's scaled duration (see
	// ReplaySchedule).
	replayMaxBurst = 10 * time.Second
	// replayRegenWeight is the head weight W the online regeneration
	// synthesizes with. Below the deployment-time W of 1, it prices the
	// head function cheaply (the Fig 7 knob), so the regenerated tables
	// lean toward larger, latency-safe head allocations: under drifted
	// traffic the loop's first duty is SLO protection, and the weight is
	// how the developer encodes that stance offline.
	replayRegenWeight = 0.5
	// replayStationaryTrim is the fraction of each cone table's budget
	// span the deployed bundle condenses away from the bottom. Stationary
	// serving keeps remaining budgets in the upper part of each cone's
	// feasible range, and synthesizing for the budgets a deployment
	// actually visits is the established practice the synthesizer's
	// BudgetOverrideMs documents (§V-F) — so the replay's initial bundle
	// covers the stationary window only. The burst then drives budgets
	// below deployed coverage (misses, escalations to the ceiling), which
	// is exactly the drift the online regeneration detects and repairs:
	// it re-synthesizes over the full range down to the observed floor
	// and hot-swaps the bundle mid-run.
	replayStationaryTrim = 0.35
)

// ReplayTenants returns the scenario's tenants — the IA chain, the VA
// chain, and the six-node ML-inference DAG — mixed by the azure-calibrated
// Zipf popularity law (ia dominates, dag is the tail).
func ReplayTenants() ([]MixTenant, error) {
	dag, err := DAGWorkflow()
	if err != nil {
		return nil, err
	}
	return []MixTenant{
		{Tenant: "ia", Workflow: workflow.IntelligentAssistant()},
		{Tenant: "va", Workflow: workflow.VideoAnalyze()},
		{Tenant: "dag", Workflow: dag},
	}, nil
}

// ReplaySchedule builds the scenario's non-stationary schedule: warm-up
// plateau, ramp, a burst whose middle third triples the aggregate rate
// while the mix shifts toward the heavy DAG tenant (a genuine workload
// drift, not just more of the same), a two-cycle diurnal phase, and a
// cool-down plateau. Phase durations scale with the suite's request
// budget so quick suites replay the same shape in less virtual time.
func (s *Suite) ReplaySchedule() (*replay.Schedule, error) {
	mix := replay.ZipfMix("ia", "va", "dag")
	// The burst's drift: the tail tenants surge past the Zipf head.
	burstMix := []replay.TenantShare{{Tenant: "ia", Weight: 1}, {Tenant: "va", Weight: 1.5}, {Tenant: "dag", Weight: 1.5}}
	d := s.replayDuration
	// The burst is a flash crowd: its absolute length does not stretch
	// with the observation window the way diurnal cycles do, so its
	// scaled duration is capped — otherwise a paper-scale suite turns a
	// seconds-long surge into a minutes-long overload that saturates any
	// provisioning policy and measures nothing but collapse.
	burstDur := d(30)
	if burstDur > replayMaxBurst {
		burstDur = replayMaxBurst
	}
	burst := replay.Burst(burstDur, 2, 22)
	burst.Mix = burstMix
	return replay.NewSchedule(s.cfg.Seed, mix,
		replay.Plateau(d(20), 2),
		replay.Ramp(d(20), 2, 6),
		burst,
		replay.Diurnal(d(120), 1, 7, d(60)),
		replay.Plateau(d(20), 2),
	)
}

// replayDuration scales a unit-schedule duration (in seconds) by the
// suite's request budget: at unit scale the phases integrate to ~780
// expected arrivals, so a quick suite replays the same shape in
// proportionally less virtual time. The compression is floored at half
// the unit scale: the controller's reaction horizon (one control
// interval plus a cold start, ~1 s) is physical, and a diurnal peak
// compressed below a few of those horizons measures reaction latency
// instead of provisioning policy. A quick suite therefore serves more
// requests than cfg.Requests here rather than replay a schedule too fast
// to adapt to.
func (s *Suite) replayDuration(sec float64) time.Duration {
	f := float64(s.cfg.Requests) / 780
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(sec * f * float64(time.Second))
}

// ReplayRow summarizes one tenant's share of a replay run (or the
// aggregate across tenants, under the tenant name "all"). The JSON field
// names are the janusbench -json schema; durations serialize as
// nanosecond integers (Go's time.Duration encoding).
type ReplayRow struct {
	Config string `json:"config"`
	Tenant string `json:"tenant"`
	// SLO is the tenant's objective; zero on the aggregate row.
	SLO time.Duration `json:"slo_ns"`
	// Requests is the tenant's share of the arrival stream.
	Requests int           `json:"requests"`
	P50      time.Duration `json:"p50_ns"`
	P99      time.Duration `json:"p99_ns"`
	// SLOAttainment is the fraction of requests meeting their objective
	// (1 - violation rate) — the scenario's service metric.
	SLOAttainment  float64 `json:"slo_attainment"`
	MeanMillicores float64 `json:"mean_millicores"`
	MissRate       float64 `json:"miss_rate"`
	ColdStarts     int     `json:"cold_starts"`
	Parked         int     `json:"parked"`
}

// ReplayRun is one replay serving run: the full tenant stream under one
// provider configuration.
type ReplayRun struct {
	Config string
	// Scenario names the schedule grid the run belongs to ("replay" or
	// "fleet"), and Nodes/NodeMillicores record the cluster it ran on.
	Scenario       string
	Nodes          int
	NodeMillicores int
	// Schedule is the rendered phase sequence the run replayed.
	Schedule string
	// Rows holds per-tenant summaries in ReplayTenants order; Aggregate
	// summarizes the merged stream.
	Rows      []ReplayRow
	Aggregate ReplayRow
	// Metrics is the run's provisioning cost: pod-seconds, peak pods,
	// pool churn.
	Metrics platform.ReplayMetrics
	// Swaps records each tenant's hint-bundle hot-swap instants (empty
	// except under ReplayAutoscaleRegen).
	Swaps map[string][]autoscale.Swap
	// Traces is the replayed trace set split by tenant.
	Traces map[string][]platform.Trace
}

// replayRow reduces one tenant's (or the merged) trace slice to a row.
func replayRow(config, tenant string, slo time.Duration, traces []platform.Trace) ReplayRow {
	sum := summarize(traces)
	return ReplayRow{
		Config:         config,
		Tenant:         tenant,
		SLO:            slo,
		Requests:       len(traces),
		P50:            sum.P50,
		P99:            sum.P99,
		SLOAttainment:  1 - sum.ViolationRate,
		MeanMillicores: sum.MeanMillicores,
		MissRate:       sum.MissRate,
		ColdStarts:     sum.ColdStarts,
		Parked:         sum.Parked,
	}
}

// summarize fills the run's rows from its traces: one per tenant, in
// tenants order, and the aggregate over their merged traces. A tenant
// absent from the run (a thin shard carries no tail-tenant requests)
// gets no row.
func (r *ReplayRun) summarize(tenants []MixTenant) {
	var merged []platform.Trace
	for _, mt := range tenants {
		ts := r.Traces[mt.Tenant]
		if len(ts) == 0 {
			continue
		}
		r.Rows = append(r.Rows, replayRow(r.Config, mt.Tenant, mt.Workflow.SLO(), ts))
		merged = append(merged, ts...)
	}
	r.Aggregate = replayRow(r.Config, "all", 0, merged)
}

// replayWorkload materializes one tenant's request stream from the
// schedule's arrival instants, once per stream. Draws do not depend on
// the provider configuration, so every configuration faces the identical
// sequence of runtime conditions — the paired comparison the scenario's
// conclusions rely on.
func (s *Suite) replayWorkload(mt MixTenant, arrivals []time.Duration) ([]*platform.Request, error) {
	// The key fingerprints the whole arrival stream, not just the
	// tenant: a future second schedule admitting the same number of
	// requests must not be served another schedule's baked-in admission
	// times.
	h := fnv.New64a()
	var buf [8]byte
	for _, at := range arrivals {
		binary.LittleEndian.PutUint64(buf[:], uint64(at))
		h.Write(buf[:])
	}
	key := fmt.Sprintf("replay-workload/%s/n%d/a%x", mt.Tenant, len(arrivals), h.Sum64())
	return memo(s, key, func() ([]*platform.Request, error) {
		return platform.GenerateWorkload(platform.WorkloadConfig{
			Workflow:         mt.Workflow,
			Functions:        s.functions,
			Batch:            1,
			Arrivals:         arrivals,
			Colocation:       s.colocationFor(mt.Workflow.Name()),
			Interference:     s.interf,
			StageCorrelation: StageCorrelation,
			Seed:             s.cfg.Seed,
		})
	})
}

// trimToStationaryWindow returns a copy of the bundle whose tables drop
// the condensed ranges lying entirely below the stationary budget window
// (the bottom replayStationaryTrim of each table's span). A range
// straddling the cut survives whole, and every table keeps at least one
// range, so the bundle stays valid.
func trimToStationaryWindow(b *hints.Bundle) *hints.Bundle {
	out := *b
	out.Tables = make([]*hints.Table, len(b.Tables))
	for i, tab := range b.Tables {
		t := *tab
		if lo, ok := tab.MinBudgetMs(); ok {
			hi, _ := tab.MaxBudgetMs()
			cut := lo + int(replayStationaryTrim*float64(hi-lo))
			kept := make([]hints.Range, 0, len(tab.Ranges))
			for _, r := range tab.Ranges {
				if r.EndMs >= cut {
					kept = append(kept, r)
				}
			}
			if len(kept) > 0 {
				t.Ranges = kept
			}
		}
		out.Tables[i] = &t
	}
	return &out
}

// replayAdapter builds a run-private adapter over a tenant's deployed
// bundle, condensed to the stationary budget window. The suite's cached
// Deployment shares one adapter across runs; a replay run that may
// hot-swap bundles mid-flight needs its own, so configurations cannot
// contaminate each other's epoch windows.
func (s *Suite) replayAdapter(mt MixTenant) (*adapter.Adapter, error) {
	dep, err := s.Deployment(mt.Workflow, 1, synth.ModeJanus, 1)
	if err != nil {
		return nil, err
	}
	return adapter.New(trimToStationaryWindow(dep.Bundle()))
}

// replayRegenFor closes the bilateral loop for one tenant: re-synthesize
// the hint bundle from the cached profiles with the exploration range
// extended down to the observed budget floor, then hot-swap it through
// the run-private adapter. tr, when non-nil, receives the loop's
// decision-audit events (detection and hot-swap).
func (s *Suite) replayRegenFor(mt MixTenant, a *adapter.Adapter, tr obs.Tracer) (*autoscale.Regen, error) {
	return autoscale.NewRegen(autoscale.RegenConfig{
		Adapter:      a,
		Latency:      replayRegenLatency,
		MinDecisions: replayRegenMinDecisions,
		Tenant:       mt.Tenant,
		Tracer:       tr,
		Synthesize: func(floorMs int) (*hints.Bundle, error) {
			return s.resynthesize(mt.Workflow, floorMs)
		},
	})
}

// resynthesize is the regeneration loop's developer half: the bundle
// synthesized from a workflow's cached profiles at the regeneration
// weight, its sweep extended down to floorMs. It is a pure function of
// (workflow, weight, floor), so it is built once per tuple and shared by
// every cell and configuration that regenerates at that floor; nothing
// it is handed to — the adapter's Replace, the decide path — mutates a
// bundle.
func (s *Suite) resynthesize(w *workflow.Workflow, floorMs int) (*hints.Bundle, error) {
	key := fmt.Sprintf("resynth/%s/%s/%d", w.Name(), strconv.FormatFloat(replayRegenWeight, 'g', -1, 64), floorMs)
	return memo(s, key, func() (*hints.Bundle, error) {
		set, err := s.Profiles(w, 1)
		if err != nil {
			return nil, err
		}
		sy, err := synth.New(synth.Config{
			Profiles:      set,
			Weight:        replayRegenWeight,
			Mode:          synth.ModeJanus,
			BudgetStepMs:  s.cfg.BudgetStepMs,
			BudgetFloorMs: floorMs,
		})
		if err != nil {
			return nil, err
		}
		res, err := sy.GenerateBundle()
		if err != nil {
			return nil, err
		}
		return res.Bundle, nil
	})
}

// scheduleSpec identifies one non-stationary serving grid: the schedule
// to replay and the cluster to replay it on. replaySpec is the PR 5
// scenario on the small shared cluster; fleetSpec (fleet.go) scales the
// same machinery to hundreds of nodes.
type scheduleSpec struct {
	scenario       string
	nodes          int
	nodeMillicores int
	schedule       func(*Suite) (*replay.Schedule, error)
}

func replaySpec() scheduleSpec {
	return scheduleSpec{
		scenario:       "replay",
		nodes:          MixDefaultNodes,
		nodeMillicores: ReplayNodeMillicores,
		schedule:       (*Suite).ReplaySchedule,
	}
}

// serveSchedule executes one provider configuration of one schedule grid
// end to end: the full merged arrival stream on the grid's full cluster.
func (s *Suite) serveSchedule(spec scheduleSpec, config string) (*ReplayRun, error) {
	tenants, err := ReplayTenants()
	if err != nil {
		return nil, err
	}
	sched, err := spec.schedule(s)
	if err != nil {
		return nil, err
	}
	byTenant := replay.TenantArrivalTimes(sched.Arrivals())
	for _, mt := range tenants {
		if len(byTenant[mt.Tenant]) == 0 {
			return nil, fmt.Errorf("experiment: replay schedule admitted no %s requests", mt.Tenant)
		}
	}
	return s.serveStream(spec, config, tenants, sched, byTenant)
}

// serveStream serves an explicit per-tenant arrival stream on the
// spec's cluster under one provider configuration. serveSchedule feeds
// it a schedule's whole stream; the sharded fleet sweep (fleetshard.go)
// feeds each independent cell its round-robin slice of the same
// stream. Tenants absent from the stream are skipped — a thin shard of
// a Zipf-tailed mix legitimately carries no requests for the tail
// tenant.
func (s *Suite) serveStream(spec scheduleSpec, config string, tenants []MixTenant, sched *replay.Schedule, byTenant map[string][]time.Duration) (*ReplayRun, error) {
	// The run's event sink, scoped by run identity so concurrent
	// configurations interleaving on one shared sink stay separable.
	// WithScope(nil, ...) stays nil, preserving the engine's zero-cost
	// tracing-off path.
	tr := obs.WithScope(s.tracer(), spec.scenario+"/"+config)
	workloads := make([]platform.TenantWorkload, 0, len(tenants))
	regens := make(map[string]*autoscale.Regen)
	for _, mt := range tenants {
		arrivals := byTenant[mt.Tenant]
		if len(arrivals) == 0 {
			continue
		}
		reqs, err := s.replayWorkload(mt, arrivals)
		if err != nil {
			return nil, err
		}
		a, err := s.replayAdapter(mt)
		if err != nil {
			return nil, err
		}
		if config == ReplayAutoscaleRegen {
			r, err := s.replayRegenFor(mt, a, tr)
			if err != nil {
				return nil, err
			}
			regens[mt.Tenant] = r
		}
		workloads = append(workloads, platform.TenantWorkload{
			Tenant:    mt.Tenant,
			Requests:  reqs,
			Allocator: &adapter.Allocator{Adapter: a, System: SysJanus},
		})
	}
	cfg := s.executorConfig(spec.nodes, spec.nodeMillicores, replayPoolSize, cluster.PlacementSpread)
	cfg.Tracer = tr
	cfg.Metrics = s.metrics()
	ex, err := platform.NewExecutor(cfg, s.functions)
	if err != nil {
		return nil, err
	}
	rcfg := platform.ReplayConfig{Interval: ReplayInterval, Horizon: sched.Duration()}
	if config == ReplayAutoscale || config == ReplayAutoscaleRegen {
		ctrl, err := autoscale.New(autoscale.Config{
			MinPool:        replayMinPool,
			MaxPool:        replayMaxPool,
			LowUtilization: 0.5,
			// The cooldown scales with the schedule so a quick suite's
			// compressed diurnal troughs still outlast it.
			Cooldown: s.replayDuration(8),
			Tracer:   tr,
		})
		if err != nil {
			return nil, err
		}
		rcfg.Controller = ctrl
	}
	if config == ReplayAutoscaleRegen {
		rcfg.OnTick = func(now time.Duration) []platform.ReplayAction {
			var acts []platform.ReplayAction
			for _, mt := range tenants {
				if r, ok := regens[mt.Tenant]; ok {
					acts = append(acts, r.Tick(now)...)
				}
			}
			return acts
		}
	}
	traces, metrics, err := ex.RunReplay(workloads, rcfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s %s: %w", spec.scenario, config, err)
	}
	run := &ReplayRun{
		Config:         config,
		Scenario:       spec.scenario,
		Nodes:          spec.nodes,
		NodeMillicores: spec.nodeMillicores,
		Schedule:       sched.String(),
		Metrics:        *metrics,
		Swaps:          make(map[string][]autoscale.Swap),
		Traces:         traces,
	}
	for tenant, r := range regens {
		run.Swaps[tenant] = r.Swaps()
	}
	run.summarize(tenants)
	return run, nil
}

// ReplayScenario serves the non-stationary schedule under every provider
// configuration (fanned over the suite's worker pool) and returns the
// runs in ReplayConfigs order.
func (s *Suite) ReplayScenario() ([]*ReplayRun, error) {
	return s.scheduleScenario(replaySpec())
}

// scheduleScenario serves one schedule grid under every provider
// configuration, fanned over the suite's worker pool. Each (scenario,
// configuration) run is served once per suite.
func (s *Suite) scheduleScenario(spec scheduleSpec) ([]*ReplayRun, error) {
	configs := ReplayConfigs()
	// serveSchedule's errors already name the configuration.
	return fanOut(s, len(configs), func(i int) (*ReplayRun, error) {
		return memo(s, "schedule/"+spec.scenario+"/"+configs[i], func() (*ReplayRun, error) {
			return s.serveSchedule(spec, configs[i])
		})
	})
}

// FormatReplay renders the scenario: the schedule, per-tenant and
// aggregate rows per configuration, each run's provisioning cost, and —
// for the closed-loop configuration — the hint-bundle hot-swap instants.
func FormatReplay(runs []*ReplayRun) string {
	var b strings.Builder
	if len(runs) > 0 {
		scenario := runs[0].Scenario
		if scenario == "" {
			scenario = "replay"
		}
		fmt.Fprintf(&b, "%s: non-stationary ia+va+dag stream on %d node(s) x %d millicores, control interval %v\n",
			strings.ToUpper(scenario[:1])+scenario[1:], runs[0].Nodes, runs[0].NodeMillicores, ReplayInterval)
		fmt.Fprintf(&b, "Schedule: %s\n", runs[0].Schedule)
	}
	fmt.Fprintf(&b, "%-16s %-6s %6s %5s %8s %8s %9s %12s %9s %6s %7s\n",
		"config", "tenant", "slo", "req", "P50", "P99", "slo.att", "millicores", "missrate", "cold", "parked")
	for _, run := range runs {
		rows := append(append([]ReplayRow(nil), run.Rows...), run.Aggregate)
		for _, r := range rows {
			slo := "-"
			if r.SLO > 0 {
				slo = fmt.Sprintf("%d", r.SLO.Milliseconds())
			}
			fmt.Fprintf(&b, "%-16s %-6s %6s %5d %8d %8d %9.4f %12.1f %9.4f %6d %7d\n",
				run.Config, r.Tenant, slo, r.Requests, r.P50.Milliseconds(), r.P99.Milliseconds(),
				r.SLOAttainment, r.MeanMillicores, r.MissRate, r.ColdStarts, r.Parked)
		}
	}
	b.WriteString("\n")
	for _, run := range runs {
		fmt.Fprintf(&b, "%-16s pod-seconds %10.1f  peak pods %3d  pool churn +%d/-%d\n",
			run.Config, run.Metrics.PodSeconds, run.Metrics.PeakPods, run.Metrics.PoolGrown, run.Metrics.PoolShrunk)
	}
	for _, run := range runs {
		tenants := make([]string, 0, len(run.Swaps))
		for t := range run.Swaps {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			for _, sw := range run.Swaps[t] {
				fmt.Fprintf(&b, "%-16s hot-swap tenant=%s at=%v missrate=%.4f floor=%dms\n",
					run.Config, t, sw.At.Round(time.Millisecond), sw.MissRate, sw.FloorMs)
			}
		}
	}
	return b.String()
}
