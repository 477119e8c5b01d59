package experiment

import (
	"fmt"
	"testing"

	"janus/internal/obs"
	"janus/internal/platform"
)

// tracedReplay runs the full replay grid on a fresh QuickSuite with a
// Collector attached and returns the runs, the captured event stream,
// and the untraced-vs-traced dump for determinism checks.
func tracedReplay(t *testing.T) ([]*ReplayRun, []obs.Event) {
	t.Helper()
	s := QuickSuite()
	s.SetParallelism(1)
	col := &obs.Collector{}
	s.SetTracer(col)
	s.SetMetrics(obs.NewRegistry())
	runs, err := s.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	return runs, col.Events()
}

// TestReplayTracerDoesNotPerturb pins the observability layer's first
// design rule: attaching a tracer and a metrics registry to the suite
// leaves every replay result byte-identical to the untraced run —
// schedule materialization, pool churn, swap instants, and every served
// trace included.
func TestReplayTracerDoesNotPerturb(t *testing.T) {
	plain := QuickSuite()
	plain.SetParallelism(1)
	runs, err := plain.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	base := dumpReplayRuns(t, runs)

	traced, events := tracedReplay(t)
	if got := dumpReplayRuns(t, traced); got != base {
		t.Fatal("attaching a tracer changed the replay results")
	}
	if len(events) == 0 {
		t.Fatal("tracer attached but no events captured")
	}
}

// chainKey identifies one request's causal chain in a traced stream.
type chainKey struct {
	scope  string
	tenant string
	req    int
}

// TestReplayTraceCausalChains replays the grid with a tracer attached
// and reconstructs, for every SLO miss, the full causal chain from the
// event stream alone: admit → decisions → parks/wakes → completion, in
// virtual-time order, with the miss set agreeing exactly with the
// returned traces.
func TestReplayTraceCausalChains(t *testing.T) {
	runs, events := tracedReplay(t)

	chains := make(map[chainKey][]obs.Event)
	swaps := make(map[string]map[string]int) // scope -> tenant -> count
	for _, ev := range events {
		if ev.Request >= 0 {
			k := chainKey{ev.Scope, ev.Tenant, ev.Request}
			chains[k] = append(chains[k], ev)
			continue
		}
		// Control-plane events carry the -1 sentinel, never a causal ID.
		switch ev.Kind {
		case obs.KindPoolScale, obs.KindScaleAudit, obs.KindSwap:
		default:
			t.Fatalf("unexpected request-less event kind %v", ev.Kind)
		}
		if ev.Kind == obs.KindSwap {
			if swaps[ev.Scope] == nil {
				swaps[ev.Scope] = make(map[string]int)
			}
			swaps[ev.Scope][ev.Tenant]++
		}
	}

	// Every chain is well-formed; collect the chains that contain a miss.
	missed := make(map[chainKey]bool)
	for k, chain := range chains {
		var admits, decisions, completes, parks, wakes int
		for i, ev := range chain {
			if i > 0 && ev.At < chain[i-1].At {
				t.Fatalf("chain %v out of virtual-time order at event %d", k, i)
			}
			switch ev.Kind {
			case obs.KindAdmit:
				admits++
			case obs.KindDecision:
				decisions++
			case obs.KindComplete:
				completes++
			case obs.KindPark:
				parks++
			case obs.KindWake:
				wakes++
			case obs.KindSLOMiss:
				missed[k] = true
			}
		}
		if admits != 1 || completes != 1 || decisions == 0 {
			t.Fatalf("chain %v: admits=%d completes=%d decisions=%d, want 1/1/>=1",
				k, admits, completes, decisions)
		}
		if wakes > parks {
			t.Fatalf("chain %v: %d wakes exceed %d parks", k, wakes, parks)
		}
		if last := chain[len(chain)-1].Kind; last != obs.KindComplete && last != obs.KindSLOMiss {
			t.Fatalf("chain %v ends with %v, want complete or slo_miss", k, last)
		}
	}

	// The event-derived miss set matches the trace-derived one exactly,
	// per run and per tenant.
	for _, run := range runs {
		scope := run.Scenario + "/" + run.Config
		for tenant, traces := range run.Traces {
			for _, tr := range traces {
				k := chainKey{scope, tenant, tr.RequestID}
				if len(chains[k]) == 0 {
					t.Fatalf("no events for served request %v", k)
				}
				want := !tr.SLOMet()
				if missed[k] != want {
					t.Fatalf("request %v: trace says miss=%t, events say %t (e2e=%v slo=%v)",
						k, want, missed[k], tr.E2E, tr.SLO)
				}
			}
		}
		// Hot-swap audit events agree with the run's swap record.
		wantSwaps := 0
		for _, sw := range run.Swaps {
			wantSwaps += len(sw)
		}
		gotSwaps := 0
		for _, n := range swaps[scope] {
			gotSwaps += n
		}
		if gotSwaps != wantSwaps {
			t.Fatalf("%s: %d swap events, run recorded %d swaps", scope, gotSwaps, wantSwaps)
		}
	}

	// The elastic configurations must explain themselves: pool-scale and
	// scale-audit events present for autoscaler scopes, absent for static.
	kinds := make(map[string]map[obs.Kind]int)
	for _, ev := range events {
		if kinds[ev.Scope] == nil {
			kinds[ev.Scope] = make(map[obs.Kind]int)
		}
		kinds[ev.Scope][ev.Kind]++
	}
	staticScope := "replay/" + ReplayStatic
	if n := kinds[staticScope][obs.KindPoolScale]; n != 0 {
		t.Fatalf("static config emitted %d pool-scale events", n)
	}
	for _, config := range []string{ReplayAutoscale, ReplayAutoscaleRegen} {
		scope := "replay/" + config
		if kinds[scope][obs.KindPoolScale] == 0 {
			t.Fatalf("%s emitted no pool-scale events", scope)
		}
		if kinds[scope][obs.KindScaleAudit] == 0 {
			t.Fatalf("%s emitted no scale-audit events", scope)
		}
	}
}

// TestReplayMetricsRegistryAgreesWithTraces attaches a registry to a
// replay grid and checks the per-tenant counters against the returned
// traces: completions, SLO misses, and park counts must agree, and the
// latency histograms must have observed every completion.
func TestReplayMetricsRegistryAgreesWithTraces(t *testing.T) {
	s := QuickSuite()
	s.SetParallelism(1)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)
	runs, err := s.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}

	wantDone := make(map[string]int)
	wantMiss := make(map[string]int)
	wantParked := make(map[string]int)
	for _, run := range runs {
		for tenant, traces := range run.Traces {
			for _, tr := range traces {
				wantDone[tenant]++
				if !tr.SLOMet() {
					wantMiss[tenant]++
				}
				wantParked[tenant] += tr.Parked
			}
		}
	}
	for tenant, want := range wantDone {
		if got := reg.Counter("janus_requests_completed_total", "tenant", tenant).Value(); got != int64(want) {
			t.Fatalf("tenant %s: completions counter %d, traces say %d", tenant, got, want)
		}
		if got := reg.Counter("janus_slo_misses_total", "tenant", tenant).Value(); got != int64(wantMiss[tenant]) {
			t.Fatalf("tenant %s: miss counter %d, traces say %d", tenant, got, wantMiss[tenant])
		}
		if got := reg.Counter("janus_parked_total", "tenant", tenant).Value(); got != int64(wantParked[tenant]) {
			t.Fatalf("tenant %s: parked counter %d, traces say %d", tenant, got, wantParked[tenant])
		}
		h := reg.Histogram("janus_e2e_latency_ms", platform.LatencyBucketsMs(), "tenant", tenant)
		if got := h.Count(); got != int64(want) {
			t.Fatalf("tenant %s: e2e histogram count %d, traces say %d", tenant, got, want)
		}
	}

	// Snapshot is deterministic and covers every family the run fed.
	snap := reg.Snapshot()
	seen := make(map[string]bool)
	for _, p := range snap {
		seen[p.Name] = true
	}
	for _, name := range []string{
		"janus_decisions_total", "janus_requests_completed_total",
		"janus_e2e_latency_ms", "janus_node_latency_ms",
		"janus_park_depth", "janus_pool_busy", "janus_pool_warm",
	} {
		if !seen[name] {
			t.Fatalf("snapshot missing family %s (have %v)", name, fmt.Sprint(seen))
		}
	}
}
