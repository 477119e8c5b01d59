package experiment

import (
	"strings"
	"testing"
	"time"
)

// tinyFleetSuite keeps the fleet grid affordable for unit tests and the
// race job: the rate floor in FleetSchedule admits ~4.7k requests over
// the full 200-node, ~3.5-minute shape — the same code paths as the
// paper-scale grid at ~50x less work.
func tinyFleetSuite() *Suite {
	return NewSuiteWith(Config{
		Seed:              1,
		ProfilerSamples:   600,
		BudgetStepMs:      20,
		Requests:          20,
		ArrivalRatePerSec: 2,
	})
}

func TestFleetScheduleShapeAndScaling(t *testing.T) {
	paper := NewSuite()
	sched, err := paper.FleetSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Duration(); got != 212*time.Second {
		t.Fatalf("fleet horizon = %v, want 212s", got)
	}
	arrivals := sched.Arrivals()
	// The paper-scale grid is a fleet-sized stream: hundreds of thousands
	// of requests, not the replay scenario's hundreds.
	if len(arrivals) < 100_000 {
		t.Fatalf("paper-scale fleet admits %d requests, want >= 100k", len(arrivals))
	}
	// Rates scale linearly with the suite's request budget...
	half, err := NewSuiteWith(Config{Seed: 1, ProfilerSamples: 600, BudgetStepMs: 20,
		Requests: 500, ArrivalRatePerSec: 2}).FleetSchedule()
	if err != nil {
		t.Fatal(err)
	}
	halfArrivals := half.Arrivals()
	ratio := float64(len(halfArrivals)) / float64(len(arrivals))
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("half-budget suite admits %.2fx the requests, want ~0.5x", ratio)
	}
	// ...down to a floor that keeps tiny test suites serving every tenant.
	tinySched, err := tinyFleetSuite().FleetSchedule()
	if err != nil {
		t.Fatal(err)
	}
	tinyArrivals := tinySched.Arrivals()
	if len(tinyArrivals) < 1000 {
		t.Fatalf("floored fleet schedule admits %d requests, want >= 1000", len(tinyArrivals))
	}
}

func TestFleetScenarioSmallSuite(t *testing.T) {
	runs, err := tinyFleetSuite().FleetScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(ReplayConfigs()) {
		t.Fatalf("fleet grid has %d runs, want %d", len(runs), len(ReplayConfigs()))
	}
	for i, run := range runs {
		if run.Config != ReplayConfigs()[i] {
			t.Fatalf("run %d is %q, want %q (ReplayConfigs order)", i, run.Config, ReplayConfigs()[i])
		}
		if run.Scenario != "fleet" {
			t.Fatalf("run %q scenario = %q, want fleet", run.Config, run.Scenario)
		}
		if run.Nodes != FleetNodes || run.NodeMillicores != FleetNodeMillicores {
			t.Fatalf("run %q cluster = %d x %d, want %d x %d",
				run.Config, run.Nodes, run.NodeMillicores, FleetNodes, FleetNodeMillicores)
		}
		if len(run.Rows) == 0 {
			t.Fatalf("run %q has no per-tenant rows", run.Config)
		}
		for _, row := range run.Rows {
			if row.Requests == 0 {
				t.Fatalf("run %q tenant %s served no requests", run.Config, row.Tenant)
			}
			if row.SLOAttainment <= 0 || row.SLOAttainment > 1 {
				t.Fatalf("run %q tenant %s SLO attainment %v outside (0, 1]",
					run.Config, row.Tenant, row.SLOAttainment)
			}
		}
		if run.Metrics.PodSeconds <= 0 || run.Metrics.PeakPods <= 0 {
			t.Fatalf("run %q carries no provisioning metrics", run.Config)
		}
	}
}

// TestFleetDeterministicAcrossParallelism extends the replay grid's
// determinism lock to fleet scale: 200 nodes, thousands of parked
// acquisitions, and the indexed cluster must replay byte for byte at any
// worker count.
func TestFleetDeterministicAcrossParallelism(t *testing.T) {
	grid := func(s *Suite) string {
		runs, err := s.FleetScenario()
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
				t.Fatalf("fleet run diverged at line %d:\n  seq: %s\n  par: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("fleet run diverged (lengths %d vs %d)", len(seq), len(par))
	}
}
