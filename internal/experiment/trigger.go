package experiment

import (
	"fmt"
	"strings"
	"time"

	"janus/internal/adapter"
	"janus/internal/cluster"
	"janus/internal/platform"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// The dynamic-trigger scenario: every other experiment serves workflows
// whose shape is fixed at deployment. Here the served DAG resolves its
// own shape at run time — a conditional fork, a data-dependent map whose
// width is drawn at the fork's readiness instant, a retried node, and an
// awaited gate resumed by external timer events on the replay engine's
// virtual clock. Both provider configurations deploy the identical
// shape-variant hint bundle and face the identical request sequence and
// trigger queue; the only difference is whether the allocator is shown
// the part of the shape already resolved at each decision instant.
// Static worst-case planning prices every map at its width bound and
// escalates when tight budgets fall below the conservative table's
// floor; shape-aware planning answers from the resolved-width variant.

// TriggerWorkflowName names the dynamic trigger-scenario workload.
const TriggerWorkflowName = "trigger-ml"

// TriggerTenant is the scenario's (single) tenant name.
const TriggerTenant = "trig"

// Trigger provider configurations, in display order.
const (
	// TriggerWorstCase plans every decision against the conservative
	// static tables: the resolved shape is withheld from the allocator
	// (adapter.Allocator.ShapeBlind), so a width-1 map is provisioned
	// as if all four replicas could arrive.
	TriggerWorstCase = "worst-case"
	// TriggerShapeAware passes each decision group's resolved-shape key
	// to the adapter, which answers from the matching width-variant
	// table and falls back to the conservative base for unresolved
	// futures.
	TriggerShapeAware = "shape-aware"
)

// TriggerConfigs lists the trigger scenario's provider configurations.
func TriggerConfigs() []string {
	return []string{TriggerWorstCase, TriggerShapeAware}
}

const (
	// TriggerSLO is the dynamic workflow's end-to-end objective. It is
	// deliberately tight for the heavy branch: a wide, retried map must
	// spend real money to meet it, which is where worst-case and
	// shape-aware planning part ways.
	TriggerSLO = 2400 * time.Millisecond
	// TriggerRatePerSec is the Poisson arrival rate. Above the suite's
	// stationary default so the two-node cluster runs in genuine
	// capacity contention: every needlessly escalated replica parks
	// somebody else's acquisition. Note the regime sensitivity: the two
	// policies only separate while contention is real but budgets still
	// land inside table coverage, and a sustained over-capacity rate
	// grows the queue with stream length, so the paper-scale (1000
	// request) stream runs past that band into saturation, where most
	// decisions escalate identically and the arms converge. The
	// quick-scale stream is the calibrated comparison; making the
	// scenario's claim scale-invariant is an open ROADMAP item.
	TriggerRatePerSec = 12
	// TriggerGateDelay is each request's timer: the gate await resumes
	// this long after the request's (effective) admission. Sized near
	// the light branch's completion time, so captions wait briefly on
	// the timer while heavy OCR fan-outs usually find it already fired.
	TriggerGateDelay = 300 * time.Millisecond
	// triggerTimerEvery selects the timer-started slice of the stream:
	// every triggerTimerEvery-th request does not arrive on its own but
	// is admitted by a start trigger TriggerTimerDelay after its drawn
	// arrival instant (a scheduled invocation, not a live one).
	triggerTimerEvery = 8
	// TriggerTimerDelay shifts timer-started admissions.
	TriggerTimerDelay = 250 * time.Millisecond
)

// TriggerWorkflow builds the scenario's dynamic ML-inference DAG:
//
//	ingest -> triage -> {caption | detect -> ocr} -> gate -> publish
//
// triage is a conditional fork (55% light captioning, 45% heavy
// detection), ocr a data-dependent map of width 1..4 with up to two
// retries per replica, and gate an awaited join resumed by an external
// timer. The static skeleton has six decision groups; the conservative
// plan prices ocr at width 4 with worst-case retries.
func TriggerWorkflow() (*workflow.Workflow, error) {
	nodes := []workflow.Node{
		{Name: "ingest", Function: "fe"},
		{Name: "triage", Function: "redis-read"},
		{Name: "caption", Function: "icl"},
		{Name: "detect", Function: "ico"},
		{Name: "ocr", Function: "ts"},
		{Name: "gate", Function: "redis-read"},
		{Name: "publish", Function: "socket-comm"},
	}
	edges := [][2]string{
		{"ingest", "triage"},
		{"triage", "caption"},
		{"triage", "detect"},
		{"detect", "ocr"},
		{"caption", "gate"},
		{"ocr", "gate"},
		{"gate", "publish"},
	}
	return workflow.NewDynamic(TriggerWorkflowName, TriggerSLO, nodes, edges, []workflow.DynamicNode{
		{Step: "triage", Choice: &workflow.ChoiceSpec{Weights: []float64{0.55, 0.45}}},
		{Step: "ocr", Map: &workflow.MapSpec{MaxWidth: 6}, Retry: &workflow.RetrySpec{MaxRetries: 2, FailureProb: 0.15}},
		{Step: "gate", Await: true},
	})
}

// TriggerSchedule derives the scenario's external-event queue from the
// request stream — a pure function of the workload, so every provider
// configuration replays the identical queue. Every request's gate await
// is resumed TriggerGateDelay after its effective admission; every
// triggerTimerEvery-th request is itself timer-started TriggerTimerDelay
// after its drawn arrival instant (and its gate timer chains off that).
func TriggerSchedule(reqs []*platform.Request) []platform.Trigger {
	out := make([]platform.Trigger, 0, len(reqs)+len(reqs)/triggerTimerEvery)
	for i, r := range reqs {
		start := r.Arrival
		if i%triggerTimerEvery == triggerTimerEvery-1 {
			start += TriggerTimerDelay
			out = append(out, platform.Trigger{At: start, Tenant: TriggerTenant, Request: r.ID})
		}
		out = append(out, platform.Trigger{At: start + TriggerGateDelay, Tenant: TriggerTenant, Request: r.ID, Step: "gate"})
	}
	return out
}

// TriggerRun is one trigger serving run: the full dynamic stream under
// one provider configuration.
type TriggerRun struct {
	Config         string
	Nodes          int
	NodeMillicores int
	// TimerStarted counts the requests admitted by start triggers.
	TimerStarted int
	// Rows break the stream down by resolved shape ("light" for the
	// caption branch, "heavy w=N" for detection at map width N) — the
	// segments the two planning policies price differently. The Tenant
	// column carries the segment label.
	Rows []ReplayRow
	// Aggregate summarizes the whole stream.
	Aggregate ReplayRow
	// Metrics is the run's provisioning cost on the shared cluster.
	Metrics platform.ReplayMetrics
	// Traces is the full replayed trace set.
	Traces []platform.Trace
}

// triggerSegments buckets traces by the shape the request resolved to.
// Trace order follows request IDs within a tenant, so reqs[t.RequestID]
// is the request that produced trace t.
func triggerSegments(config string, reqs []*platform.Request, traces []platform.Trace) []ReplayRow {
	labels := []string{"light", "heavy w=1", "heavy w=2", "heavy w=3", "heavy w=4", "heavy w=5", "heavy w=6"}
	buckets := make(map[string][]platform.Trace, len(labels))
	for _, t := range traces {
		r := reqs[t.RequestID]
		label := "light"
		if r.Dyn.Choice("triage") == 1 {
			label = fmt.Sprintf("heavy w=%d", r.Dyn.Width("ocr"))
		}
		buckets[label] = append(buckets[label], t)
	}
	rows := make([]ReplayRow, 0, len(labels))
	for _, label := range labels {
		ts := buckets[label]
		if len(ts) == 0 {
			continue
		}
		rows = append(rows, replayRow(config, label, TriggerSLO, ts))
	}
	return rows
}

// serveTrigger executes one provider configuration of the trigger
// scenario end to end.
func (s *Suite) serveTrigger(config string) (*TriggerRun, error) {
	w, err := TriggerWorkflow()
	if err != nil {
		return nil, err
	}
	reqs, err := s.WorkloadAtRate(w, 1, TriggerRatePerSec)
	if err != nil {
		return nil, err
	}
	triggers := TriggerSchedule(reqs)
	// Both configurations deploy the identical shape-variant bundle; a
	// run-private adapter keeps their epoch windows from contaminating
	// each other.
	dep, err := s.Deployment(w, 1, synth.ModeJanus, 1)
	if err != nil {
		return nil, err
	}
	a, err := adapter.New(dep.Bundle())
	if err != nil {
		return nil, err
	}
	alloc := &adapter.Allocator{Adapter: a, System: config, ShapeBlind: config == TriggerWorstCase}
	ex, err := platform.NewExecutor(s.executorConfig(MixDefaultNodes, ReplayNodeMillicores, replayPoolSize, cluster.PlacementSpread), s.functions)
	if err != nil {
		return nil, err
	}
	// The horizon spans the last external event plus one full objective,
	// so both configurations pay for their pools over the same window.
	var horizon time.Duration
	for _, tr := range triggers {
		if tr.At > horizon {
			horizon = tr.At
		}
	}
	horizon += TriggerSLO
	traces, metrics, err := ex.RunReplay(
		[]platform.TenantWorkload{{Tenant: TriggerTenant, Requests: reqs, Allocator: alloc}},
		platform.ReplayConfig{Interval: ReplayInterval, Horizon: horizon, Triggers: triggers},
	)
	if err != nil {
		return nil, fmt.Errorf("experiment: trigger %s: %w", config, err)
	}
	ts := traces[TriggerTenant]
	run := &TriggerRun{
		Config:         config,
		Nodes:          MixDefaultNodes,
		NodeMillicores: ReplayNodeMillicores,
		TimerStarted:   len(reqs) / triggerTimerEvery,
		Rows:           triggerSegments(config, reqs, ts),
		Aggregate:      replayRow(config, "all", TriggerSLO, ts),
		Metrics:        *metrics,
		Traces:         ts,
	}
	return run, nil
}

// TriggerScenario serves the dynamic stream under both provider
// configurations (fanned over the suite's worker pool), each once per
// suite, and returns the runs in TriggerConfigs order.
func (s *Suite) TriggerScenario() ([]*TriggerRun, error) {
	configs := TriggerConfigs()
	return fanOut(s, len(configs), func(i int) (*TriggerRun, error) {
		return memo(s, "trigger/"+configs[i], func() (*TriggerRun, error) {
			return s.serveTrigger(configs[i])
		})
	})
}

// FormatTrigger renders the scenario: per-shape-segment and aggregate
// rows per configuration, then each run's provisioning cost.
func FormatTrigger(runs []*TriggerRun) string {
	var b strings.Builder
	if len(runs) > 0 {
		fmt.Fprintf(&b, "Trigger: dynamic %s stream (%d timer-started) on %d node(s) x %d millicores, SLO %dms, rate %g/s\n",
			TriggerWorkflowName, runs[0].TimerStarted, runs[0].Nodes, runs[0].NodeMillicores,
			TriggerSLO.Milliseconds(), float64(TriggerRatePerSec))
	}
	fmt.Fprintf(&b, "%-12s %-9s %5s %8s %8s %9s %12s %9s %6s %7s\n",
		"config", "shape", "req", "P50", "P99", "slo.att", "millicores", "missrate", "cold", "parked")
	for _, run := range runs {
		rows := append(append([]ReplayRow(nil), run.Rows...), run.Aggregate)
		for _, r := range rows {
			fmt.Fprintf(&b, "%-12s %-9s %5d %8d %8d %9.4f %12.1f %9.4f %6d %7d\n",
				run.Config, r.Tenant, r.Requests, r.P50.Milliseconds(), r.P99.Milliseconds(),
				r.SLOAttainment, r.MeanMillicores, r.MissRate, r.ColdStarts, r.Parked)
		}
	}
	b.WriteString("\n")
	for _, run := range runs {
		fmt.Fprintf(&b, "%-12s pod-seconds %10.1f  peak pods %3d\n",
			run.Config, run.Metrics.PodSeconds, run.Metrics.PeakPods)
	}
	return b.String()
}
