package platform

import (
	"time"

	"janus/internal/obs"
)

// This file is the serving plane's observability glue: the pre-registered
// metric handles a run keeps when ExecutorConfig.Metrics is attached, and
// the small helpers the emit sites share. Every site in the engine is
// guarded by `st.tracer != nil` / `st.om != nil` (the replay window's
// nil-guard idiom), so with nothing attached no Event is constructed and
// nothing allocates — the zero-cost-when-off contract internal/obs
// documents, pinned by the bench guard.

// latencyBucketsMs are the fixed bounds of every latency histogram the
// run registers (per-tenant end-to-end, per tenant×function node
// latency), in milliseconds.
var latencyBucketsMs = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// LatencyBucketsMs returns a copy of the fixed latency-histogram bounds,
// for callers resolving the same histogram handles from a shared registry.
func LatencyBucketsMs() []int64 {
	return append([]int64(nil), latencyBucketsMs...)
}

// runObs holds the run-level registry handles: the park-depth gauge and
// the per-function pool-occupancy gauges the replay control ticks feed,
// indexed by cluster function index.
type runObs struct {
	reg       *obs.Registry
	parkDepth *obs.Gauge
	poolBusy  []*obs.Gauge
	poolWarm  []*obs.Gauge
}

func newRunObs(reg *obs.Registry) *runObs {
	return &runObs{
		reg:       reg,
		parkDepth: reg.Gauge("janus_park_depth"),
	}
}

// tenant registers (or resolves) one tenant's handle set for a run
// deploying fns functions.
func (ro *runObs) tenant(name string, fns int) *tenantObs {
	return &tenantObs{
		reg:         ro.reg,
		name:        name,
		decisions:   ro.reg.Counter("janus_decisions_total", "tenant", name),
		escalations: ro.reg.Counter("janus_escalations_total", "tenant", name),
		parked:      ro.reg.Counter("janus_parked_total", "tenant", name),
		completions: ro.reg.Counter("janus_requests_completed_total", "tenant", name),
		sloMisses:   ro.reg.Counter("janus_slo_misses_total", "tenant", name),
		e2e:         ro.reg.Histogram("janus_e2e_latency_ms", latencyBucketsMs, "tenant", name),
		nodeLatency: make([]*obs.Histogram, fns),
	}
}

// observePools samples the per-function pool occupancy into gauges at a
// replay control tick (pool occupancy is a control-loop observable; runs
// without a control loop leave the gauges at zero). stats[i] describes
// the function with cluster index idx[i]. Handles register lazily on
// first sight of a function — one registry round-trip per function per
// run, then slice reads.
func (ro *runObs) observePools(stats []ReplayFunctionStats, idx []int) {
	if ro.poolBusy == nil {
		ro.poolBusy = make([]*obs.Gauge, len(stats))
		ro.poolWarm = make([]*obs.Gauge, len(stats))
	}
	for i := range stats {
		fs, fn := &stats[i], idx[i]
		if ro.poolBusy[fn] == nil {
			ro.poolBusy[fn] = ro.reg.Gauge("janus_pool_busy", "function", fs.Function)
			ro.poolWarm[fn] = ro.reg.Gauge("janus_pool_warm", "function", fs.Function)
		}
		ro.poolBusy[fn].Set(int64(fs.Busy))
		ro.poolWarm[fn].Set(int64(fs.Warm))
	}
}

// tenantObs is one tenant's pre-registered handle set, resolved once in
// prepareRun so the serving path pays plain integer ops; the
// per-function histograms are indexed by cluster function index.
type tenantObs struct {
	reg         *obs.Registry
	name        string
	decisions   *obs.Counter
	escalations *obs.Counter
	parked      *obs.Counter
	completions *obs.Counter
	sloMisses   *obs.Counter
	e2e         *obs.Histogram
	nodeLatency []*obs.Histogram
}

// decision counts one allocation decision; a hints-table miss is the
// escalation the bilateral loop reacts to.
func (t *tenantObs) decision(hit bool) {
	t.decisions.Inc()
	if !hit {
		t.escalations.Inc()
	}
}

// observeNode records one executed node's latency into the tenant's
// histogram for its function (cluster index fn, named name), registering
// the handle on first use.
func (t *tenantObs) observeNode(fn int, name string, latency time.Duration) {
	h := t.nodeLatency[fn]
	if h == nil {
		h = t.reg.Histogram("janus_node_latency_ms", latencyBucketsMs, "function", name, "tenant", t.name)
		t.nodeLatency[fn] = h
	}
	h.Observe(latency.Milliseconds())
}

// reqEvent seeds an event with the causal-ID fields every
// request-lifecycle event carries.
func reqEvent(rs *reqState, at time.Duration, kind obs.Kind) obs.Event {
	return obs.Event{At: at, Kind: kind, Tenant: rs.tn.name, Request: rs.r.ID}
}

// observeComplete emits the completion (and SLO-miss) events and updates
// the tenant's completion metrics — finishRequest's observability half.
// Callers guard with `st.tracer != nil || rs.tn.om != nil`.
func (st *runState) observeComplete(rs *reqState, end time.Duration) {
	e2e, slo := rs.tr.E2E, rs.tr.SLO
	if st.tracer != nil {
		ev := reqEvent(rs, end, obs.KindComplete)
		ev.Value = int64(e2e)
		ev.Aux = int64(slo)
		ev.Flag = e2e <= slo
		st.tracer.Emit(ev)
		if e2e > slo {
			miss := reqEvent(rs, end, obs.KindSLOMiss)
			miss.Value = int64(e2e - slo)
			st.tracer.Emit(miss)
		}
	}
	if om := rs.tn.om; om != nil {
		om.completions.Inc()
		if e2e > slo {
			om.sloMisses.Inc()
		}
		om.e2e.Observe(e2e.Milliseconds())
	}
}
