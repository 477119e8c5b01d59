package experiment

import (
	"fmt"
	"strings"
	"testing"

	"janus/internal/hints"
)

func TestReplayScheduleShapeAndScaling(t *testing.T) {
	s := quickSuite(t)
	sched, err := s.ReplaySchedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Phases()); got != 5 {
		t.Fatalf("schedule has %d phases, want 5", got)
	}
	arrivals := sched.Arrivals()
	if len(arrivals) == 0 {
		t.Fatal("schedule admits no traffic")
	}
	// The materialized count tracks the schedule's own rate integral
	// within Poisson noise (the suite's request budget scales the
	// schedule, but the burst cap and the compression floor mean the
	// integral, not cfg.Requests, is the ground truth).
	n := float64(len(arrivals))
	want := sched.ExpectedArrivals()
	if n < want*0.8 || n > want*1.2 {
		t.Fatalf("schedule admitted %d arrivals, expected ~%.0f", len(arrivals), want)
	}
	tenants := map[string]bool{}
	for _, a := range arrivals {
		tenants[a.Tenant] = true
	}
	for _, want := range []string{"ia", "va", "dag"} {
		if !tenants[want] {
			t.Fatalf("schedule never admits tenant %s", want)
		}
	}
}

func TestTrimToStationaryWindow(t *testing.T) {
	mk := func(suffix int, budgets ...int) *hints.Table {
		var hs []hints.Hint
		for i, b := range budgets {
			hs = append(hs, hints.Hint{BudgetMs: b, HeadMillicores: 1000 + 100*i, HeadPercentile: 99})
		}
		tab, err := hints.Condense(&hints.RawTable{Suffix: suffix, Weight: 1, Hints: hs})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	b := &hints.Bundle{
		Workflow: "w", Batch: 1, Weight: 1, SLOMs: 5000, MaxMillicores: 3000,
		Tables: []*hints.Table{
			mk(0, 1000, 2000, 3000, 4000, 5000),
			mk(1, 700), // single range: must survive whole
		},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	trimmed := trimToStationaryWindow(b)
	if err := trimmed.Validate(); err != nil {
		t.Fatalf("trimmed bundle invalid: %v", err)
	}
	// Table 0 spans [1000, 5000]; the cut at 1000+0.35*4000=2400 drops
	// the range ending at 2000 but keeps the straddling one.
	lo, _ := trimmed.Tables[0].MinBudgetMs()
	if lo <= 2000 {
		t.Fatalf("trim kept sub-window coverage down to %d ms", lo)
	}
	hi, _ := trimmed.Tables[0].MaxBudgetMs()
	if hi != 5000 {
		t.Fatalf("trim lost top coverage: max %d", hi)
	}
	if trimmed.Tables[1].Size() != 1 {
		t.Fatalf("single-range table trimmed to %d ranges", trimmed.Tables[1].Size())
	}
	// The original bundle is untouched.
	if lo, _ := b.Tables[0].MinBudgetMs(); lo != 1000 {
		t.Fatalf("trim mutated the source bundle (min %d)", lo)
	}
}

func TestReplayScenarioShape(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(ReplayConfigs()) {
		t.Fatalf("%d runs, want %d", len(runs), len(ReplayConfigs()))
	}
	tenants, err := ReplayTenants()
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run.Config != ReplayConfigs()[i] {
			t.Fatalf("run %d config %q, want %q", i, run.Config, ReplayConfigs()[i])
		}
		if run.Schedule == "" {
			t.Fatalf("run %s has no schedule rendering", run.Config)
		}
		if len(run.Rows) != len(tenants) {
			t.Fatalf("run %s has %d tenant rows", run.Config, len(run.Rows))
		}
		merged := 0
		for j, mt := range tenants {
			row := run.Rows[j]
			if row.Tenant != mt.Tenant || row.SLO != mt.Workflow.SLO() {
				t.Fatalf("run %s row %d is %s/%v, want %s/%v", run.Config, j, row.Tenant, row.SLO, mt.Tenant, mt.Workflow.SLO())
			}
			traces := run.Traces[mt.Tenant]
			if len(traces) != row.Requests || len(traces) == 0 {
				t.Fatalf("run %s tenant %s: %d traces vs row %d", run.Config, mt.Tenant, len(traces), row.Requests)
			}
			merged += len(traces)
			for _, tr := range traces {
				if tr.SLO != mt.Workflow.SLO() {
					t.Fatalf("run %s tenant %s trace has SLO %v", run.Config, mt.Tenant, tr.SLO)
				}
			}
		}
		if run.Aggregate.Tenant != "all" || run.Aggregate.Requests != merged {
			t.Fatalf("run %s aggregate row %+v (merged %d)", run.Config, run.Aggregate, merged)
		}
		if run.Metrics.PodSeconds <= 0 || run.Metrics.Ticks == 0 || run.Metrics.PeakPods <= 0 {
			t.Fatalf("run %s metrics empty: %+v", run.Config, run.Metrics)
		}
		// All configurations replay the identical arrival stream.
		if merged != runs[0].Aggregate.Requests {
			t.Fatalf("run %s served %d requests, run %s served %d",
				run.Config, merged, runs[0].Config, runs[0].Aggregate.Requests)
		}
		switch run.Config {
		case ReplayStatic:
			if run.Metrics.PoolGrown != 0 || run.Metrics.PoolShrunk != 0 {
				t.Fatalf("static run churned pools: %+v", run.Metrics)
			}
			if len(run.Swaps) != 0 {
				t.Fatalf("static run recorded %d swap sets", len(run.Swaps))
			}
		case ReplayAutoscale:
			if run.Metrics.PoolGrown == 0 || run.Metrics.PoolShrunk == 0 {
				t.Fatalf("autoscaler run never churned pools: %+v", run.Metrics)
			}
			if len(run.Swaps) != 0 {
				t.Fatalf("autoscaler run recorded swaps without regen")
			}
		}
	}
	out := FormatReplay(runs)
	if out == "" || !strings.Contains(out, "pod-seconds") {
		t.Fatal("scenario rendering lacks pod-seconds")
	}
}

// TestReplayClosedLoopBeatsStaticPools is the tentpole's acceptance
// check: on the burst+diurnal schedule, the autoscaler+online-regen
// configuration strictly beats statically sized pools on SLO attainment
// at equal-or-lower pod-seconds, and the hint-bundle hot-swap instants
// appear in the emitted trace.
func TestReplayClosedLoopBeatsStaticPools(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	byConfig := map[string]*ReplayRun{}
	for _, run := range runs {
		byConfig[run.Config] = run
	}
	static, closed := byConfig[ReplayStatic], byConfig[ReplayAutoscaleRegen]
	if static == nil || closed == nil {
		t.Fatal("missing scenario endpoints")
	}
	if closed.Aggregate.SLOAttainment <= static.Aggregate.SLOAttainment {
		t.Errorf("closed loop does not beat static pools on SLO attainment: %.4f vs %.4f",
			closed.Aggregate.SLOAttainment, static.Aggregate.SLOAttainment)
	}
	if closed.Metrics.PodSeconds > static.Metrics.PodSeconds {
		t.Errorf("closed loop spends more pod-seconds than static pools: %.1f vs %.1f",
			closed.Metrics.PodSeconds, static.Metrics.PodSeconds)
	}
	// The online regeneration visibly repairs the drifted bundle: misses
	// drop against the same arrival stream.
	if closed.Aggregate.MissRate >= static.Aggregate.MissRate {
		t.Errorf("regeneration did not reduce the miss rate: %.4f vs %.4f",
			closed.Aggregate.MissRate, static.Aggregate.MissRate)
	}
	swaps := 0
	for _, sw := range closed.Swaps {
		swaps += len(sw)
	}
	if swaps == 0 {
		t.Fatal("closed-loop run recorded no hint-bundle hot-swap")
	}
	out := FormatReplay(runs)
	if !strings.Contains(out, "hot-swap tenant=") {
		t.Fatal("hot-swap instants missing from the emitted trace")
	}
}

// dumpReplayRuns serializes every field the replay driver consumes — rows,
// provisioning metrics, swap instants, and the full per-node traces — so
// two runs compare byte for byte (the replay analogue of dumpMixRuns).
func dumpReplayRuns(t testing.TB, runs []*ReplayRun) string {
	var b strings.Builder
	workflows := tenantWorkflows(t, ReplayTenants)
	for _, run := range runs {
		fmt.Fprintf(&b, "%s sched=%q pods=%.6f peak=%d ticks=%d churn=%d/%d\n",
			run.Config, run.Schedule, run.Metrics.PodSeconds, run.Metrics.PeakPods,
			run.Metrics.Ticks, run.Metrics.PoolGrown, run.Metrics.PoolShrunk)
		rows := append(append([]ReplayRow(nil), run.Rows...), run.Aggregate)
		for _, r := range rows {
			fmt.Fprintf(&b, "  row %s req=%d p50=%v p99=%v att=%.9f mc=%.9f miss=%.9f cold=%d parked=%d\n",
				r.Tenant, r.Requests, r.P50, r.P99, r.SLOAttainment, r.MeanMillicores, r.MissRate, r.ColdStarts, r.Parked)
		}
		for _, mt := range []string{"ia", "va", "dag"} {
			for _, sw := range run.Swaps[mt] {
				fmt.Fprintf(&b, "  swap %s at=%v miss=%.9f floor=%d\n", mt, sw.At, sw.MissRate, sw.FloorMs)
			}
			for _, tr := range run.Traces[mt] {
				fmt.Fprintf(&b, "  %s req=%d arr=%v done=%v e2e=%v mc=%d dec=%d miss=%d parked=%d\n",
					mt, tr.RequestID, tr.Arrival, tr.Done, tr.E2E, tr.TotalMillicores, tr.Decisions, tr.Misses, tr.Parked)
				for _, st := range tr.Stages {
					node := stageNode(workflows[mt], &st)
					fmt.Fprintf(&b, "    %s s%d.b%d n%d %s mc=%d start=%v end=%v cold=%t hit=%t\n",
						node.Name, st.Stage, st.Branch, st.Node, node.Function, st.Millicores, st.Start, st.End, st.Cold, st.Hit)
				}
			}
		}
	}
	return b.String()
}

// TestReplayDeterministicAcrossParallelism locks the subsystem's
// determinism: a fresh QuickSuite running the full replay grid at
// parallelism 1 and at parallelism 8 must produce byte-identical runs —
// schedule materialization, elastic pool churn, regeneration instants,
// and every served trace included.
func TestReplayDeterministicAcrossParallelism(t *testing.T) {
	grid := func(s *Suite) string {
		runs, err := s.ReplayScenario()
		if err != nil {
			t.Fatal(err)
		}
		return dumpReplayRuns(t, runs)
	}
	sequential := QuickSuite()
	sequential.SetParallelism(1)
	seq := grid(sequential)
	concurrent := QuickSuite()
	concurrent.SetParallelism(8)
	par := grid(concurrent)
	if seq != par {
		a, b := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("replay run diverged at line %d:\n  seq: %s\n  par: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("replay run diverged (lengths %d vs %d)", len(seq), len(par))
	}
}

// TestReplayWorkloadsSharedAcrossConfigs pins the paired-comparison
// setup: the cached request streams are identical objects across
// configurations, so every provisioning policy faces the same draws.
func TestReplayWorkloadsSharedAcrossConfigs(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 2 {
		t.Fatal("not enough runs")
	}
	for _, tenant := range []string{"ia", "va", "dag"} {
		a, b := runs[0].Traces[tenant], runs[1].Traces[tenant]
		if len(a) != len(b) {
			t.Fatalf("tenant %s served %d vs %d requests across configs", tenant, len(a), len(b))
		}
		for i := range a {
			if a[i].Arrival != b[i].Arrival {
				t.Fatalf("tenant %s request %d arrives at %v vs %v", tenant, i, a[i].Arrival, b[i].Arrival)
			}
		}
	}
}
