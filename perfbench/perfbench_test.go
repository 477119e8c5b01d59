package main

import (
	"reflect"
	"testing"

	"janus/internal/experiment"
)

// smallSuite is the suite configuration the tests run at: the quick
// suite's profiling and synthesis resolution.
func smallSuite(requests int) experiment.Config {
	return experiment.Config{Seed: 1, ProfilerSamples: 600, BudgetStepMs: 20, Requests: requests, ArrivalRatePerSec: 2}
}

// serveSpec sets a spec up and serves it once, untraced.
func serveSpec(t *testing.T, spec simSpec) (*pipeline, *serveResult) {
	t.Helper()
	p, err := setupSim(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.serve(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestParity pins that the benchmark's chained pipelines reproduce the
// program's own scenarios exactly: the autoscaler and autoscaler+regen
// rows of Suite.FleetScenario and the shape-aware row of
// Suite.TriggerScenario, trace for trace.
func TestParity(t *testing.T) {
	cfg := smallSuite(20)
	runs, err := experiment.NewSuiteWith(cfg).FleetScenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if run.Config == experiment.ReplayStatic {
			continue
		}
		spec := simSpec{suite: cfg, autoscale: true, regen: run.Config == experiment.ReplayAutoscaleRegen, nodes: experiment.FleetNodes}
		p, res := serveSpec(t, spec)
		for _, tn := range p.tenants {
			if !reflect.DeepEqual(res.traces[tn.name], run.Traces[tn.name]) {
				t.Errorf("fleet %s: tenant %s traces differ from the suite's", run.Config, tn.name)
			}
		}
		if *res.metrics != run.Metrics {
			t.Errorf("fleet %s: metrics %+v, suite has %+v", run.Config, *res.metrics, run.Metrics)
		}
		swaps := 0
		for _, s := range run.Swaps {
			swaps += len(s)
		}
		if res.swaps != swaps {
			t.Errorf("fleet %s: %d swaps, suite has %d", run.Config, res.swaps, swaps)
		}
		if run.Config == experiment.ReplayAutoscaleRegen && swaps == 0 {
			t.Errorf("fleet %s: no regeneration happened, so the parity check proves nothing about it", run.Config)
		}
	}

	cfg = smallSuite(200)
	trig, err := experiment.NewSuiteWith(cfg).TriggerScenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range trig {
		if run.Config != experiment.TriggerShapeAware {
			continue
		}
		spec := simSpec{suite: cfg, trigger: true, nodes: experiment.MixDefaultNodes,
			triggerRate: experiment.TriggerRatePerSec, triggerN: cfg.Requests}
		_, res := serveSpec(t, spec)
		if !reflect.DeepEqual(res.traces[experiment.TriggerTenant], run.Traces) {
			t.Errorf("trigger %s: traces differ from the suite's", run.Config)
		}
		if *res.metrics != run.Metrics {
			t.Errorf("trigger %s: metrics %+v, suite has %+v", run.Config, *res.metrics, run.Metrics)
		}
	}
}

// smallSpec is a simulator workload's benchmark configuration at test
// scale.
func smallSpec(t *testing.T, name string) simSpec {
	t.Helper()
	spec, ok := simSpecFor(name, 1)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spec.suite.ProfilerSamples, spec.suite.BudgetStepMs = 600, 20
	spec.suite.Requests = 20
	spec.triggerN /= 50
	return spec
}

// TestWrappersPreserveTraces pins the traced run's wrappers: with every
// layer call timed and a counting tracer attached, each simulator
// workload's traces are identical to the untraced run's (so the trigger
// workload stays shape-aware), and the platform's decision memo still
// serves the static workloads through the allocator wrapper.
func TestWrappersPreserveTraces(t *testing.T) {
	for _, name := range []string{"fleet", "regen", "trigger"} {
		t.Run(name, func(t *testing.T) {
			p, plain := serveSpec(t, smallSpec(t, name))
			l := newLedger()
			traced, err := p.serve(l, newCountingTracer())
			if err != nil {
				t.Fatal(err)
			}
			if a, b := p.digest(plain), p.digest(traced); a != b {
				t.Fatalf("traced digest %016x, untraced %016x", b, a)
			}
			// Dynamic decisions bypass the memo by design; static ones
			// must keep it.
			if !p.spec.trigger && l.memo == 0 {
				t.Errorf("no decision was served from the platform's memo through the wrapper")
			}
			if l.adapter.n == 0 {
				t.Errorf("the allocator wrapper timed no decisions")
			}
			if name == "regen" && traced.swaps == 0 {
				t.Errorf("no regeneration happened at test scale")
			}
		})
	}
}

// TestTriggerShapeMatters proves the wrapper test can see a dropped
// ShapeAwareAllocator: serving the trigger stream shape-blind changes its
// traces.
func TestTriggerShapeMatters(t *testing.T) {
	spec := smallSpec(t, "trigger")
	p, aware := serveSpec(t, spec)
	p.spec.shapeBlind = true
	blind, err := p.serve(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.digest(aware) == p.digest(blind) {
		t.Fatal("shape-blind and shape-aware trigger runs have identical traces")
	}
}

// TestDaemonPass runs one decide pass against the loopback server and
// checks every answer and the server's own counters.
func TestDaemonPass(t *testing.T) {
	d, err := setupDaemon(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{metrics: metricSet{}}
	res, _, err := d.pass(0, out)
	if err != nil {
		t.Fatal(err)
	}
	d.checkCounters(out, int64(len(d.calls)), res.hits, res.misses, len(res.reloads))
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range out.problems {
		t.Error(p)
	}
	if res.hits == 0 || res.misses == 0 {
		t.Errorf("decide stream has %d hits and %d misses; it must exercise both", res.hits, res.misses)
	}
}
