package main

import (
	"fmt"
	"time"

	"janus/internal/adapter"
	"janus/internal/autoscale"
	"janus/internal/cluster"
	"janus/internal/experiment"
	"janus/internal/hints"
	"janus/internal/interfere"
	"janus/internal/obs"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/profile"
	"janus/internal/replay"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// The simulator workloads chain the program's layers through their
// exported functions — profile → synth → adapter → platform/cluster →
// autoscale — exactly as experiment.Suite's serveStream and serveTrigger
// do, so every call into a layer is the benchmark's own and can be timed
// from outside. The constants below mirror the experiment package's
// unexported replay settings; TestParity pins that the chained pipelines
// reproduce the suite's own rows.
const (
	poolSize       = 3               // replayPoolSize
	minPool        = 2               // replayMinPool
	maxPool        = 6               // replayMaxPool
	regenLatency   = 2 * time.Second // replayRegenLatency
	regenMinDecide = 30              // replayRegenMinDecisions
	regenWeight    = 0.5             // replayRegenWeight
	stationaryTrim = 0.35            // replayStationaryTrim
)

// simSpec sizes one simulator workload.
type simSpec struct {
	// suite carries the suite parameters the pipeline shares with
	// experiment.Suite: seed, profiling samples, synthesis step, and the
	// request budget FleetSchedule scales its rates by.
	suite experiment.Config
	// trigger selects the dynamic TriggerWorkflow stream instead of the
	// fleet schedule's ia/va/dag mix.
	trigger bool
	// autoscale and regen select the replay provider configuration
	// (autoscaler, autoscaler+regen); both off serves static pools.
	autoscale, regen bool
	// shapeBlind withholds resolved shapes (the trigger scenario's
	// worst-case arm).
	shapeBlind bool
	// nodes sizes the cluster; triggerRate and triggerN size the trigger
	// stream.
	nodes       int
	triggerRate float64
	triggerN    int
}

// simSpecFor returns the benchmark's configuration of a simulator
// workload at a seed.
func simSpecFor(name string, seed uint64) (simSpec, bool) {
	suite := experiment.Config{Seed: seed, ProfilerSamples: 2000, BudgetStepMs: 1}
	switch name {
	case "fleet":
		suite.Requests = 600
		return simSpec{suite: suite, autoscale: true, nodes: experiment.FleetNodes}, true
	case "regen":
		suite.Requests = 200
		return simSpec{suite: suite, autoscale: true, regen: true, nodes: experiment.FleetNodes}, true
	case "trigger":
		// At 100 req/s, 20 nodes sit on the capacity knee: some seeds
		// serve 0.90 of requests within the SLO while others grow an
		// unbounded queue (attainment below 0.06, simulated p99 past
		// 280 s). 22 nodes keep every seed below the knee with thousands
		// of parks still on the park index.
		return simSpec{suite: suite, trigger: true, nodes: 22, triggerRate: 100, triggerN: 100000}, true
	}
	return simSpec{}, false
}

// tenantSetup is one tenant's set-up artifacts: its profiles, deployed
// bundle, and request stream. Requests are read-only during a
// run, so every serve pass reuses them.
type tenantSetup struct {
	name   string
	set    *profile.Set
	bundle *hints.Bundle
	reqs   []*platform.Request
}

// pipeline is a simulator workload after set-up: everything RunReplay
// needs, reusable across serve passes.
type pipeline struct {
	spec      simSpec
	functions map[string]*perfmodel.Function
	interf    *interfere.Model
	tenants   []tenantSetup
	triggers  []platform.Trigger
	horizon   time.Duration
	requests  int
}

func newPipeline(spec simSpec) *pipeline {
	return &pipeline{spec: spec, functions: perfmodel.Catalog(), interf: interfere.Default()}
}

// colocation mirrors experiment.Suite.colocationFor: the co-location mix
// each workflow's pods see.
func colocation(wf string) (*interfere.CountSampler, error) {
	switch wf {
	case "va", experiment.SPWorkflowName, experiment.DAGWorkflowName:
		return interfere.NewCountSampler([]float64{0.4, 0.4, 0.2})
	default:
		return interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	}
}

// setupSim runs the workload's set-up: profiling, initial synthesis, and
// stream generation. l, when non-nil, times each layer call.
func setupSim(spec simSpec, l *ledger) (*pipeline, error) {
	p := newPipeline(spec)
	if spec.trigger {
		if err := p.setupTrigger(l); err != nil {
			return nil, err
		}
	} else if err := p.setupFleet(l); err != nil {
		return nil, err
	}
	for _, t := range p.tenants {
		p.requests += len(t.reqs)
	}
	return p, nil
}

func (p *pipeline) setupFleet(l *ledger) error {
	mix, err := experiment.ReplayTenants()
	if err != nil {
		return err
	}
	end := l.begin("replay.schedule")
	sched, err := experiment.NewSuiteWith(p.spec.suite).FleetSchedule()
	if err != nil {
		return err
	}
	byTenant := replay.TenantArrivalTimes(sched.Arrivals())
	end()
	p.horizon = sched.Duration()
	for _, mt := range mix {
		arrivals := byTenant[mt.Tenant]
		if len(arrivals) == 0 {
			return fmt.Errorf("fleet schedule admitted no %s requests", mt.Tenant)
		}
		t, err := p.deploy(mt.Tenant, mt.Workflow, l)
		if err != nil {
			return err
		}
		t.bundle = trimToStationaryWindow(t.bundle)
		if t.reqs, err = p.generate(workloadFor(mt.Workflow, arrivals, 0, 0), l); err != nil {
			return err
		}
		p.tenants = append(p.tenants, t)
	}
	return nil
}

func (p *pipeline) setupTrigger(l *ledger) error {
	w, err := experiment.TriggerWorkflow()
	if err != nil {
		return err
	}
	t, err := p.deploy(experiment.TriggerTenant, w, l)
	if err != nil {
		return err
	}
	if t.reqs, err = p.generate(workloadFor(w, nil, p.spec.triggerN, p.spec.triggerRate), l); err != nil {
		return err
	}
	p.tenants = []tenantSetup{t}
	end := l.begin("replay.schedule")
	defer end()
	p.triggers = experiment.TriggerSchedule(t.reqs)
	for _, tr := range p.triggers {
		if tr.At > p.horizon {
			p.horizon = tr.At
		}
	}
	p.horizon += experiment.TriggerSLO
	return nil
}

// workloadFor describes one tenant's request stream: explicit arrival
// instants, or n Poisson arrivals at rate.
func workloadFor(w *workflow.Workflow, arrivals []time.Duration, n int, rate float64) platform.WorkloadConfig {
	return platform.WorkloadConfig{Workflow: w, Batch: 1, Arrivals: arrivals, N: n, ArrivalRatePerSec: rate}
}

// deploy profiles a workflow and synthesizes its deployed bundle (Janus
// mode, head weight 1), as Suite.Deployment does.
func (p *pipeline) deploy(tenant string, w *workflow.Workflow, l *ledger) (tenantSetup, error) {
	coloc, err := colocation(w.Name())
	if err != nil {
		return tenantSetup{}, err
	}
	prof, err := profile.NewProfiler(p.functions, coloc, p.interf, p.spec.suite.Seed)
	if err != nil {
		return tenantSetup{}, err
	}
	prof.SamplesPerConfig = p.spec.suite.ProfilerSamples
	end := l.begin("profile")
	set, err := prof.ProfileWorkflow(w, 1)
	end()
	if err != nil {
		return tenantSetup{}, fmt.Errorf("profile %s: %w", w.Name(), err)
	}
	b, err := synthesize(synth.Config{Profiles: set, Weight: 1, Mode: synth.ModeJanus, BudgetStepMs: p.spec.suite.BudgetStepMs}, l)
	if err != nil {
		return tenantSetup{}, fmt.Errorf("synthesize %s: %w", w.Name(), err)
	}
	return tenantSetup{name: tenant, set: set, bundle: b}, nil
}

// synthesize runs one synth.New + GenerateBundle call.
func synthesize(cfg synth.Config, l *ledger) (*hints.Bundle, error) {
	end := l.begin("synth")
	defer end()
	sy, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sy.GenerateBundle()
	if err != nil {
		return nil, err
	}
	l.synthesized(res)
	return res.Bundle, nil
}

// generate materializes one tenant's request stream.
func (p *pipeline) generate(cfg platform.WorkloadConfig, l *ledger) ([]*platform.Request, error) {
	cfg.Functions = p.functions
	cfg.Interference = p.interf
	cfg.StageCorrelation = experiment.StageCorrelation
	cfg.Seed = p.spec.suite.Seed
	coloc, err := colocation(cfg.Workflow.Name())
	if err != nil {
		return nil, err
	}
	cfg.Colocation = coloc
	end := l.begin("replay.generate")
	defer end()
	return platform.GenerateWorkload(cfg)
}

// trimToStationaryWindow mirrors the experiment package's trim of the
// deployed bundle: each table drops the ranges lying entirely below the
// bottom stationaryTrim of its budget span.
func trimToStationaryWindow(b *hints.Bundle) *hints.Bundle {
	out := *b
	out.Tables = make([]*hints.Table, len(b.Tables))
	for i, tab := range b.Tables {
		t := *tab
		if lo, ok := tab.MinBudgetMs(); ok {
			hi, _ := tab.MaxBudgetMs()
			cut := lo + int(stationaryTrim*float64(hi-lo))
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

// cooldown mirrors Suite.replayDuration(8): the autoscaler cooldown
// scales with the suite's request budget, floored at half scale.
func (p *pipeline) cooldown() time.Duration {
	f := float64(p.spec.suite.Requests) / 780
	if f < 0.5 {
		f = 0.5
	}
	return time.Duration(8 * f * float64(time.Second))
}

// serveResult is one serve pass's outputs.
type serveResult struct {
	traces  map[string][]platform.Trace
	metrics *platform.ReplayMetrics
	// adapters holds each tenant's run-private adapter, for hit/miss
	// statistics after the run.
	adapters []*adapter.Adapter
	swaps    int
	wall     time.Duration
}

// serve runs one RunReplay pass over the set-up streams with fresh
// adapters, hooks, controller, and executor, so passes are independent.
// l and tr are nil in untraced passes; with l set every layer callback is
// wrapped in a timer, and tr receives the engine's event stream.
func (p *pipeline) serve(l *ledger, tr obs.Tracer) (*serveResult, error) {
	res := &serveResult{}
	workloads := make([]platform.TenantWorkload, 0, len(p.tenants))
	var regens []*autoscale.Regen
	for _, t := range p.tenants {
		a, err := adapter.New(t.bundle)
		if err != nil {
			return nil, err
		}
		res.adapters = append(res.adapters, a)
		if p.spec.regen {
			r, err := p.regenFor(t, a, l, tr)
			if err != nil {
				return nil, err
			}
			regens = append(regens, r)
		}
		alloc := &adapter.Allocator{Adapter: a, System: experiment.SysJanus, ShapeBlind: p.spec.shapeBlind}
		if p.spec.trigger {
			alloc.System = experiment.TriggerShapeAware
			if p.spec.shapeBlind {
				alloc.System = experiment.TriggerWorstCase
			}
		}
		workloads = append(workloads, platform.TenantWorkload{Tenant: t.name, Requests: t.reqs, Allocator: l.wrapAllocator(alloc)})
	}
	cfg := platform.DefaultExecutorConfig()
	cfg.Cluster = cluster.Config{
		Nodes:          p.spec.nodes,
		NodeMillicores: experiment.ReplayNodeMillicores,
		PoolSize:       poolSize,
		IdleMillicores: 100,
		Placement:      cluster.PlacementSpread,
	}
	cfg.Seed = p.spec.suite.Seed
	cfg.Tracer = tr
	ex, err := platform.NewExecutor(cfg, p.functions)
	if err != nil {
		return nil, err
	}
	rcfg := platform.ReplayConfig{Interval: experiment.ReplayInterval, Horizon: p.horizon, Triggers: p.triggers}
	if p.spec.autoscale {
		ctrl, err := autoscale.New(autoscale.Config{
			MinPool:        minPool,
			MaxPool:        maxPool,
			LowUtilization: 0.5,
			Cooldown:       p.cooldown(),
			Tracer:         tr,
		})
		if err != nil {
			return nil, err
		}
		rcfg.Controller = l.wrapController(ctrl)
	}
	if len(regens) > 0 {
		rcfg.OnTick = l.wrapOnTick(func(now time.Duration) []platform.ReplayAction {
			var acts []platform.ReplayAction
			for _, r := range regens {
				acts = append(acts, r.Tick(now)...)
			}
			return acts
		})
	}
	end := l.begin("platform.run_replay")
	start := time.Now()
	res.traces, res.metrics, err = ex.RunReplay(workloads, rcfg)
	res.wall = time.Since(start)
	end()
	if err != nil {
		return nil, fmt.Errorf("run replay: %w", err)
	}
	for _, r := range regens {
		res.swaps += len(r.Swaps())
	}
	return res, nil
}

// regenFor builds one tenant's online regeneration hook, configured as
// the autoscaler+regen replay configuration: re-synthesis from the
// tenant's profiles at weight regenWeight down to the observed floor.
func (p *pipeline) regenFor(t tenantSetup, a *adapter.Adapter, l *ledger, tr obs.Tracer) (*autoscale.Regen, error) {
	return autoscale.NewRegen(autoscale.RegenConfig{
		Adapter:      a,
		Latency:      regenLatency,
		MinDecisions: regenMinDecide,
		Tenant:       t.name,
		Tracer:       tr,
		Synthesize: func(floorMs int) (*hints.Bundle, error) {
			l.regenerated(t.name, floorMs)
			return synthesize(synth.Config{
				Profiles:      t.set,
				Weight:        regenWeight,
				Mode:          synth.ModeJanus,
				BudgetStepMs:  p.spec.suite.BudgetStepMs,
				BudgetFloorMs: floorMs,
			}, l)
		},
	})
}
