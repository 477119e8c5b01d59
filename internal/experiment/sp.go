package experiment

import (
	"fmt"
	"strings"
	"time"

	"janus/internal/workflow"
)

// SPWorkflowName names the series-parallel scenario workload: the Video
// Analyze application in its fork-join form (frame extraction fanning out
// to concurrent classification and compression).
const SPWorkflowName = "va-sp"

// SPWorkflow returns the scenario's fork-join DAG. It serves through the
// same platform.Executor as every chain point: per-branch pods, warm-pool
// hits and cold starts per branch, capacity parking, slowest-branch joins.
func SPWorkflow() *workflow.Workflow { return workflow.VideoAnalyzeSP() }

// SPSystems lists the systems of the series-parallel scenario, in display
// order. ORION sits out: its distribution model needs raw per-allocation
// latency samples, which the composite (max-of-branches) reduction does not
// retain.
func SPSystems() []string {
	return []string{SysOptimal, SysJanus, SysJanusPlus, SysJanusMinus, SysGrandSLAMP, SysGrandSLAM}
}

// SPArrivalRates returns the Poisson rates of the arrival sweep, requests
// per second. Draws are rate-independent: the sweep subjects the identical
// request sequence to increasing admission pressure, isolating queueing.
func SPArrivalRates() []float64 { return []float64{1, 2, 4, 8} }

// spSweepSystems are the systems contrasted under admission pressure: the
// late-binding adapter, the strongest early binder, and the clairvoyant
// floor.
func spSweepSystems() []string { return []string{SysOptimal, SysJanus, SysGrandSLAMP} }

// SPRow is one system's summary in the series-parallel scenario.
type SPRow struct {
	System         string
	P50            time.Duration
	P99            time.Duration
	ViolationRate  float64
	MeanMillicores float64
	MissRate       float64
	// ColdStarts and Parked total the substrate events across the run —
	// the costs the sequential-loop SP serving path could never charge.
	ColdStarts int
	Parked     int
}

// SPScenario serves the series-parallel Video Analyze workload under every
// scenario system on the shared cluster substrate and summarizes latency,
// consumption, and substrate behavior per system.
func (s *Suite) SPScenario() ([]SPRow, error) {
	w := SPWorkflow()
	runs, err := s.RunPoint(w, 1, SPSystems())
	if err != nil {
		return nil, err
	}
	var out []SPRow
	for _, sys := range SPSystems() {
		r := runs[sys]
		out = append(out, SPRow{
			System:         sys,
			P50:            r.P50E2E,
			P99:            r.P99E2E,
			ViolationRate:  r.ViolationRate,
			MeanMillicores: r.MeanMillicores,
			MissRate:       r.MissRate,
			ColdStarts:     r.ColdStarts,
			Parked:         r.Parked,
		})
	}
	return out, nil
}

// FormatSPScenario renders the scenario rows.
func FormatSPScenario(rows []SPRow) string {
	var b strings.Builder
	b.WriteString("SP scenario: series-parallel Video Analyze (fe -> icl || ico) on the cluster substrate\n")
	fmt.Fprintf(&b, "%-11s %8s %8s %10s %12s %9s %6s %7s\n",
		"system", "P50", "P99", "viol.rate", "millicores", "missrate", "cold", "parked")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %8d %8d %10.4f %12.1f %9.4f %6d %7d\n",
			r.System, r.P50.Milliseconds(), r.P99.Milliseconds(), r.ViolationRate,
			r.MeanMillicores, r.MissRate, r.ColdStarts, r.Parked)
	}
	return b.String()
}

// SPArrivalRow is one (rate, system) point of the arrival sweep.
type SPArrivalRow struct {
	RatePerSec     float64
	System         string
	P99            time.Duration
	ViolationRate  float64
	MeanMillicores float64
	Parked         int
}

// SPArrivalSweep sweeps the Poisson arrival rate over the series-parallel
// workload for the late binder, the strongest early binder, and the
// clairvoyant floor. All (rate, system) points fan out over the suite's
// worker pool; results come back in input order and are consumed by
// position.
func (s *Suite) SPArrivalSweep() ([]SPArrivalRow, error) {
	w := SPWorkflow()
	var points []Point
	for _, rate := range SPArrivalRates() {
		for _, sys := range spSweepSystems() {
			points = append(points, Point{Workflow: w, Batch: 1, System: sys, ArrivalRatePerSec: rate})
		}
	}
	runs, err := s.RunPoints(points)
	if err != nil {
		return nil, err
	}
	out := make([]SPArrivalRow, len(points))
	for i, run := range runs {
		out[i] = SPArrivalRow{
			RatePerSec:     points[i].ArrivalRatePerSec,
			System:         points[i].System,
			P99:            run.P99E2E,
			ViolationRate:  run.ViolationRate,
			MeanMillicores: run.MeanMillicores,
			Parked:         run.Parked,
		}
	}
	return out, nil
}

// FormatSPArrivalSweep renders the sweep.
func FormatSPArrivalSweep(rows []SPArrivalRow) string {
	var b strings.Builder
	b.WriteString("SP arrival sweep: admission pressure on the series-parallel Video Analyze workload\n")
	fmt.Fprintf(&b, "%6s %-11s %8s %10s %12s %7s\n", "req/s", "system", "P99", "viol.rate", "millicores", "parked")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6g %-11s %8d %10.4f %12.1f %7d\n",
			r.RatePerSec, r.System, r.P99.Milliseconds(), r.ViolationRate, r.MeanMillicores, r.Parked)
	}
	return b.String()
}
