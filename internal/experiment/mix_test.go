package experiment

import (
	"fmt"
	"strings"
	"testing"

	"janus/internal/cluster"
	"janus/internal/platform"
)

func TestMixScenarioShape(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.MixScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(MixSystems()) {
		t.Fatalf("%d runs, want %d", len(runs), len(MixSystems()))
	}
	tenants, err := MixTenants()
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if run.System != MixSystems()[i] {
			t.Fatalf("run %d system %q, want %q", i, run.System, MixSystems()[i])
		}
		if run.Nodes != MixDefaultNodes || run.Placement != cluster.PlacementSpread {
			t.Fatalf("run %s cluster shape %d/%s", run.System, run.Nodes, run.Placement)
		}
		if len(run.Tenants) != len(tenants) {
			t.Fatalf("run %s has %d tenant rows", run.System, len(run.Tenants))
		}
		// Per-tenant trace counts must sum to the merged workload size,
		// with every trace tagged for its tenant.
		merged := 0
		for j, mt := range tenants {
			row := run.Tenants[j]
			if row.Tenant != mt.Tenant || row.SLO != mt.Workflow.SLO() {
				t.Fatalf("run %s row %d is %s/%v, want %s/%v", run.System, j, row.Tenant, row.SLO, mt.Tenant, mt.Workflow.SLO())
			}
			traces := run.Traces[mt.Tenant]
			if len(traces) == 0 {
				t.Fatalf("run %s tenant %s has no traces", run.System, mt.Tenant)
			}
			merged += len(traces)
			for _, tr := range traces {
				if tr.SLO != mt.Workflow.SLO() {
					t.Fatalf("run %s tenant %s trace has SLO %v", run.System, mt.Tenant, tr.SLO)
				}
			}
		}
		var all []platform.Trace
		for _, traces := range run.Traces {
			all = append(all, traces...)
		}
		if len(all) != merged {
			t.Fatalf("run %s: merged %d traces but tenants sum to %d", run.System, len(all), merged)
		}
		if run.Aggregate.Tenant != "all" || run.Aggregate.SLO != 0 {
			t.Fatalf("run %s aggregate row = %+v", run.System, run.Aggregate)
		}
		if run.Aggregate.MeanMillicores <= 0 || run.Aggregate.P99 <= 0 {
			t.Fatalf("run %s aggregate metrics empty: %+v", run.System, run.Aggregate)
		}
	}
	if FormatMixScenario(runs) == "" {
		t.Fatal("empty scenario rendering")
	}
}

func TestMixScaleOutRelievesContention(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.MixScaleOut()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(MixNodeCounts())*len(mixSweepSystems()) {
		t.Fatalf("%d sweep runs", len(runs))
	}
	// Index aggregate P99 and parking by (nodes, system).
	bySpec := map[string]*MixRun{}
	for _, run := range runs {
		bySpec[fmt.Sprintf("%d/%s", run.Nodes, run.System)] = run
	}
	for _, sys := range mixSweepSystems() {
		one, four := bySpec["1/"+sys], bySpec["4/"+sys]
		if one == nil || four == nil {
			t.Fatalf("missing sweep endpoints for %s", sys)
		}
		// Scaling from 1 to 4 nodes quadruples capacity for the identical
		// request sequence: queueing can only shrink.
		if four.Aggregate.Parked > one.Aggregate.Parked {
			t.Errorf("%s: parking grew with capacity (1 node %d, 4 nodes %d)",
				sys, one.Aggregate.Parked, four.Aggregate.Parked)
		}
		if four.Aggregate.P99 > one.Aggregate.P99 {
			t.Errorf("%s: aggregate P99 grew with capacity (1 node %v, 4 nodes %v)",
				sys, one.Aggregate.P99, four.Aggregate.P99)
		}
	}
	if FormatMixScaleOut(runs) == "" {
		t.Fatal("empty sweep rendering")
	}
}

func TestMixPlacementPolicies(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.MixPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].Placement != cluster.PlacementSpread || runs[1].Placement != cluster.PlacementFirstFit {
		t.Fatalf("placement comparison runs = %+v", runs)
	}
	// Both policies serve the same merged workload completely.
	for _, run := range runs {
		total := 0
		for _, traces := range run.Traces {
			total += len(traces)
		}
		if total != len(runs[0].Traces["ia"])*3 {
			t.Fatalf("placement %s served %d traces", run.Placement, total)
		}
	}
	if FormatMixPlacement(runs) == "" {
		t.Fatal("empty placement rendering")
	}
}

// dumpMixRuns serializes every field the mix drivers consume — per-tenant
// summaries plus the full per-branch traces — so two runs compare byte for
// byte (the mixed analogue of dumpRuns).
func dumpMixRuns(t testing.TB, runs []*MixRun) string {
	var b strings.Builder
	workflows := tenantWorkflows(t, MixTenants)
	tenantsOf := func(run *MixRun) []string {
		names := make([]string, len(run.Tenants))
		for i, row := range run.Tenants {
			names[i] = row.Tenant
		}
		return names
	}
	for _, run := range runs {
		fmt.Fprintf(&b, "%s n%d %s agg_mc=%.9f agg_p99=%v agg_viol=%.9f\n",
			run.System, run.Nodes, run.Placement, run.Aggregate.MeanMillicores, run.Aggregate.P99, run.Aggregate.ViolationRate)
		for _, tenant := range tenantsOf(run) {
			for _, tr := range run.Traces[tenant] {
				fmt.Fprintf(&b, "  %s req=%d arr=%v done=%v e2e=%v mc=%d dec=%d miss=%d parked=%d\n",
					tenant, tr.RequestID, tr.Arrival, tr.Done, tr.E2E, tr.TotalMillicores, tr.Decisions, tr.Misses, tr.Parked)
				for _, st := range tr.Stages {
					fmt.Fprintf(&b, "    s%d.b%d n%d %s mc=%d start=%v end=%v cold=%t hit=%t\n",
						st.Stage, st.Branch, st.Node, stageNode(workflows[tenant], &st).Function, st.Millicores, st.Start, st.End, st.Cold, st.Hit)
				}
			}
		}
	}
	return b.String()
}

// TestMixDeterministicAcrossParallelism is the tentpole's acceptance test:
// a fresh QuickSuite running the full mix grid (scenario, scale-out sweep,
// placement comparison) at parallelism 1 and at parallelism 8 must produce
// byte-identical mixed trace sets. The merged interleaving of three
// tenants' arrival streams is a pure function of the inputs, so worker
// scheduling can reorder which mixed run executes first, never what any
// run produces.
func TestMixDeterministicAcrossParallelism(t *testing.T) {
	grid := func(s *Suite) string {
		scenario, err := s.MixScenario()
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := s.MixScaleOut()
		if err != nil {
			t.Fatal(err)
		}
		placement, err := s.MixPlacement()
		if err != nil {
			t.Fatal(err)
		}
		return dumpMixRuns(t, scenario) + dumpMixRuns(t, sweep) + dumpMixRuns(t, placement)
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
				t.Fatalf("mixed run diverged at line %d:\n  seq: %s\n  par: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("mixed run diverged (lengths %d vs %d)", len(seq), len(par))
	}
}
