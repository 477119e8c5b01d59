package experiment

import (
	"strings"
	"testing"
)

func TestShardArrivalsConservesStream(t *testing.T) {
	sched, err := tinyFleetSuite().FleetSchedule()
	if err != nil {
		t.Fatal(err)
	}
	arrivals := sched.Arrivals()
	shards := shardArrivals(arrivals, FleetShardCells)
	if len(shards) != FleetShardCells {
		t.Fatalf("shardArrivals produced %d cells, want %d", len(shards), FleetShardCells)
	}
	whole := make(map[string]int)
	for _, a := range arrivals {
		whole[a.Tenant]++
	}
	sharded := make(map[string]int)
	total := 0
	for c, byTenant := range shards {
		cell := 0
		for tenant, ats := range byTenant {
			sharded[tenant] += len(ats)
			cell += len(ats)
			// Round-robin over a time-ordered stream keeps each cell's
			// per-tenant arrivals time-ordered.
			for i := 1; i < len(ats); i++ {
				if ats[i-1] > ats[i] {
					t.Fatalf("cell %d tenant %s arrivals out of order at %d", c, tenant, i)
				}
			}
		}
		total += cell
		// Round-robin spreads the stream evenly: cells differ by at most
		// one arrival.
		if want := len(arrivals) / FleetShardCells; cell < want || cell > want+1 {
			t.Fatalf("cell %d holds %d arrivals, want %d or %d", c, cell, want, want+1)
		}
	}
	if total != len(arrivals) {
		t.Fatalf("shards hold %d arrivals, stream has %d", total, len(arrivals))
	}
	for tenant, n := range whole {
		if sharded[tenant] != n {
			t.Fatalf("tenant %s: shards hold %d arrivals, stream has %d", tenant, sharded[tenant], n)
		}
	}
}

func TestFleetShardScenarioSmallSuite(t *testing.T) {
	s := tinyFleetSuite()
	runs, err := s.FleetShardScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(ReplayConfigs()) {
		t.Fatalf("sharded grid has %d runs, want %d", len(runs), len(ReplayConfigs()))
	}
	sched, err := s.FleetSchedule()
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(map[string]int)
	for _, a := range sched.Arrivals() {
		admitted[a.Tenant]++
	}
	for i, run := range runs {
		if run.Config != ReplayConfigs()[i] {
			t.Fatalf("run %d is %q, want %q (ReplayConfigs order)", i, run.Config, ReplayConfigs()[i])
		}
		if run.Scenario != "fleetshard" {
			t.Fatalf("run %q scenario = %q, want fleetshard", run.Config, run.Scenario)
		}
		if run.Nodes != FleetNodes {
			t.Fatalf("run %q merged node count = %d, want %d", run.Config, run.Nodes, FleetNodes)
		}
		// Exact conservation: every admitted request is served in exactly
		// one cell, so merged per-tenant counts equal the unsharded
		// stream's admission counts.
		served := 0
		for _, row := range run.Rows {
			if row.Requests != admitted[row.Tenant] {
				t.Fatalf("run %q tenant %s served %d requests, schedule admitted %d",
					run.Config, row.Tenant, row.Requests, admitted[row.Tenant])
			}
			served += row.Requests
		}
		if run.Aggregate.Requests != served {
			t.Fatalf("run %q aggregate counts %d requests, rows sum to %d",
				run.Config, run.Aggregate.Requests, served)
		}
		if run.Metrics.PodSeconds <= 0 || run.Metrics.PeakPods <= 0 {
			t.Fatalf("run %q carries no merged provisioning metrics", run.Config)
		}
	}
}

// TestFleetShardDeterministicAcrossParallelism pins the sharded sweep's
// merge: cells serve sequentially within a configuration, but the
// configurations fan across the worker pool, and the merged output must
// be byte-identical at any worker count.
func TestFleetShardDeterministicAcrossParallelism(t *testing.T) {
	grid := func(s *Suite) string {
		runs, err := s.FleetShardScenario()
		if err != nil {
			t.Fatal(err)
		}
		return dumpReplayRuns(t, runs)
	}
	sequential := tinyFleetSuite()
	sequential.SetParallelism(1)
	seq := grid(sequential)
	concurrent := tinyFleetSuite()
	concurrent.SetParallelism(8)
	par := grid(concurrent)
	if seq != par {
		a, b := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("sharded fleet run diverged at line %d:\n  seq: %s\n  par: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("sharded fleet run diverged (lengths %d vs %d)", len(seq), len(par))
	}
}

func TestFormatFleetShardMentionsCellLayout(t *testing.T) {
	runs, err := tinyFleetSuite().FleetShardScenario()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFleetShard(runs)
	if !strings.Contains(out, "4 cells x 50 nodes") {
		t.Fatalf("sharded header missing cell layout:\n%s", out)
	}
	if !strings.Contains(out, "deterministic merge") {
		t.Fatalf("sharded header missing merge note:\n%s", out)
	}
}
