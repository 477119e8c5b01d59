package experiment

import (
	"fmt"
	"strings"
	"time"

	"janus/internal/workflow"
)

// DAGWorkflowName names the arbitrary-DAG scenario workload: a six-node
// ML-inference pipeline whose cross edge makes it genuinely
// non-series-parallel — no stage decomposition exists, so the node-granular
// engine is the only way to serve it.
const DAGWorkflowName = "ml-dag"

// DAGSLO is the scenario's end-to-end latency objective, calibrated like
// the paper's workloads: the all-minimum allocation misses it along the
// critical path while maximum allocations meet it comfortably, so sizing
// policy differences are what the results measure.
const DAGSLO = 1300 * time.Millisecond

// DAGWorkflow returns the scenario DAG:
//
//	preprocess ─┬─> detect ──┬─────────> fuse ──> publish
//	            │            ├─> ocr ─────^
//	            └─> classify ┴────────────^
//
// Frame preprocessing fans out to an object detector and a scene
// classifier; the detector additionally feeds an OCR pass over the
// detected regions (the cross edge), and fusion joins all three before
// the result is published. detect and classify share a predecessor set —
// one decision group, exactly like an SP stage — while ocr rides the
// detector's path alone and fuse's in-degree-3 join is implicit in node
// readiness. Functions come from the standard catalog, picked for latency
// scale: the heavy vision stages up front, light aggregation behind.
func DAGWorkflow() (*workflow.Workflow, error) {
	nodes := []workflow.Node{
		{Name: "preprocess", Function: "fe"},
		{Name: "detect", Function: "icl"},
		{Name: "classify", Function: "ico"},
		{Name: "ocr", Function: "aes-encrypt"},
		{Name: "fuse", Function: "redis-read"},
		{Name: "publish", Function: "socket-comm"},
	}
	edges := [][2]string{
		{"preprocess", "detect"},
		{"preprocess", "classify"},
		{"detect", "ocr"},
		{"detect", "fuse"},
		{"classify", "fuse"},
		{"ocr", "fuse"},
		{"fuse", "publish"},
	}
	return workflow.New(DAGWorkflowName, DAGSLO, nodes, edges)
}

// DAGSystems lists the scenario's systems in display order. ORION sits
// out for the same reason as the series-parallel scenario: its
// distribution model needs raw per-allocation latency samples, which the
// max-over-members composite profiles do not retain.
func DAGSystems() []string {
	return []string{SysOptimal, SysJanus, SysJanusPlus, SysJanusMinus, SysGrandSLAMP, SysGrandSLAM}
}

// DAGRow is one system's summary in the arbitrary-DAG scenario. The JSON
// field names follow the janusbench -json schema (snake_case, durations
// as nanosecond integers — see experiment.ReplayRow).
type DAGRow struct {
	System         string        `json:"system"`
	P50            time.Duration `json:"p50_ns"`
	P99            time.Duration `json:"p99_ns"`
	ViolationRate  float64       `json:"violation_rate"`
	MeanMillicores float64       `json:"mean_millicores"`
	MissRate       float64       `json:"miss_rate"`
	// Decisions is the mean allocation decisions per request: one per
	// decision group (5 here — detect and classify share one), not one
	// per stage, which no stage-indexed engine could produce for this
	// workflow.
	Decisions float64 `json:"decisions"`
	// ColdStarts and Parked total the substrate events across the run.
	ColdStarts int `json:"cold_starts"`
	Parked     int `json:"parked"`
}

// DAGScenario serves the six-node ML-inference DAG under every scenario
// system on the shared cluster substrate: per-node readiness scheduling,
// a shared decision for the detect/classify fork, the ocr cross path, and
// the in-degree-3 join at fuse all run on the same engine (and warm
// pools, and capacity queue) as the chain and SP experiments.
func (s *Suite) DAGScenario() ([]DAGRow, error) {
	w, err := DAGWorkflow()
	if err != nil {
		return nil, err
	}
	runs, err := s.RunPoint(w, 1, DAGSystems())
	if err != nil {
		return nil, err
	}
	var out []DAGRow
	for _, sys := range DAGSystems() {
		r := runs[sys]
		out = append(out, DAGRow{
			System:         sys,
			P50:            r.P50E2E,
			P99:            r.P99E2E,
			ViolationRate:  r.ViolationRate,
			MeanMillicores: r.MeanMillicores,
			MissRate:       r.MissRate,
			Decisions:      r.Decisions,
			ColdStarts:     r.ColdStarts,
			Parked:         r.Parked,
		})
	}
	return out, nil
}

// FormatDAGScenario renders the scenario rows.
func FormatDAGScenario(rows []DAGRow) string {
	var b strings.Builder
	b.WriteString("DAG scenario: 6-node ML-inference DAG (preprocess -> {detect, classify}; detect -> ocr; join at fuse -> publish)\n")
	fmt.Fprintf(&b, "%-11s %8s %8s %10s %12s %9s %5s %6s %7s\n",
		"system", "P50", "P99", "viol.rate", "millicores", "missrate", "dec", "cold", "parked")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %8d %8d %10.4f %12.1f %9.4f %5.1f %6d %7d\n",
			r.System, r.P50.Milliseconds(), r.P99.Milliseconds(), r.ViolationRate,
			r.MeanMillicores, r.MissRate, r.Decisions, r.ColdStarts, r.Parked)
	}
	return b.String()
}
