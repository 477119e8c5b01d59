package main

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"janus/internal/adapter"
	"janus/internal/obs"
	"janus/internal/platform"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// minServePasses is the fewest RunReplay passes a run measures; serve_s
// is their median.
const minServePasses = 3

// measureSim is the untraced run of a simulator workload: set up
// setupReps times, then serve the stream repeatedly until the budget is
// spent, checking every pass.
func measureSim(spec simSpec, start time.Time, budget time.Duration) (*outcome, error) {
	out := &outcome{metrics: metricSet{}, report: metricSet{}}
	var p *pipeline
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		p = nil
		runtime.GC()
		t0 := time.Now()
		if i == 0 {
			t0 = start // the first set-up also pays process start-up
		}
		var err error
		if p, err = setupSim(spec, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var (
		walls, peaks []float64
		first        *serveResult
		sum          summary
	)
	deadline := time.Now().Add(budget)
	for len(walls) < minServePasses || time.Now().Before(deadline) {
		if err := startPass(); err != nil {
			return nil, err
		}
		res, err := p.serve(nil, nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		walls, peaks = append(walls, res.wall.Seconds()), append(peaks, rss)
		out.attempted += int64(p.requests)
		out.failed += int64(p.conservation(res, out))
		if first == nil {
			first, sum = res, p.summarize(res)
			continue
		}
		if d := p.digest(res); d != p.digest(first) {
			out.fail("serve pass %d trace digest %016x differs from the first pass's %016x", len(walls), d, p.digest(first))
		}
	}
	out.metrics.set("setup_s", median(setups), "s")
	out.metrics.set("serve_s", median(walls), "s")
	out.metrics.set("peak_rss_mb", median(peaks), "MB")
	out.metrics.set("mean_millicores", sum.meanMillicores, "mc")
	out.metrics.set("hit_frac", hitFrac(first.adapters), "frac")
	sum.report(out.report)
	out.report.set("requests", float64(sum.requests), "count")
	out.report.set("parked", float64(sum.parked), "count")
	out.report.set("swaps", float64(sum.swaps), "count")
	out.report.set("serve_passes", float64(len(walls)), "count")
	out.report.set("trace_digest", float64(p.digest(first)>>11), "hash")
	return out, nil
}

// traceSim is the traced run: one timed set-up, one untraced serve pass
// (the digest and overhead baseline), and one pass with every layer call
// wrapped in timers and a counting tracer attached. Its simulated outputs
// must equal the untraced pass's.
func traceSim(spec simSpec, start time.Time) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	l := newLedger()
	l.origin = start
	p, err := setupSim(spec, l)
	if err != nil {
		return nil, err
	}
	setupWall := time.Since(start)
	runtime.GC()
	before := sampleRuntime()
	plain, err := p.serve(nil, nil)
	if err != nil {
		return nil, err
	}
	after := sampleRuntime()
	runtime.GC()
	tr := newCountingTracer()
	t0 := time.Now()
	traced, err := p.serve(l, tr)
	if err != nil {
		return nil, err
	}
	window := setupWall + time.Since(t0)
	out.attempted = 2 * int64(p.requests)
	out.failed = int64(p.conservation(plain, out) + p.conservation(traced, out))
	if a, b := p.digest(plain), p.digest(traced); a != b {
		out.fail("traced trace digest %016x differs from the untraced run's %016x", b, a)
	}
	m := out.metrics
	recordRuntime(m, before, after, int64(p.requests))
	p.summarize(traced).report(m)
	l.simLayers(m, p, traced, tr, plain.wall)
	l.unattributed(m, window)
	if err := l.writeSpans(os.Stderr); err != nil {
		return nil, err
	}
	return out, nil
}

// simLayers fills the simulator ledger from the traced pass.
func (l *ledger) simLayers(m metricSet, p *pipeline, res *serveResult, tr *countingTracer, untraced time.Duration) {
	serve := res.wall.Seconds()
	n, d := l.sum("profile", "")
	m.set("profile.calls", float64(n), "count")
	m.set("profile.s", d, "s")
	n, d = l.sum("synth", "")
	m.set("synth.calls", float64(n), "count")
	m.set("synth.s", d, "s")
	m.set("synth.hints", float64(l.rawHints), "count")
	_, synthServe := l.sum("synth", "platform.run_replay")
	m.set("synth.serve_frac", synthServe/serve, "frac")
	distinct := 0.0
	if l.regens > 0 {
		distinct = float64(len(l.regenKeys)) / float64(l.regens)
	}
	m.set("synth.distinct_frac", distinct, "frac")
	_, sched := l.sum("replay.schedule", "")
	_, gen := l.sum("replay.generate", "")
	m.set("replay.requests", float64(p.requests), "count")
	m.set("replay.s", sched+gen, "s")

	m.set("adapter.decisions", float64(l.adapter.n), "count")
	m.set("adapter.s", l.adapter.d.Seconds(), "s")
	m.set("adapter.memo_frac", frac(l.memo, l.adapter.n), "frac")
	m.set("adapter.hit_frac", hitFrac(res.adapters), "frac")

	self := serve - l.adapter.d.Seconds() - l.targets.d.Seconds() - l.onTick.d.Seconds()
	m.set("platform.self_s", self, "s")
	m.set("platform.serve_frac", self/serve, "frac")
	m.set("platform.us_per_req", self/float64(p.requests)*1e6, "us")

	m.set("park.parks", float64(tr.kinds[obs.KindPark]), "count")
	m.set("park.wakes", float64(tr.kinds[obs.KindWake]), "count")
	m.set("park.wait_s", tr.waitSum.Seconds(), "s")
	acq := tr.kinds[obs.KindAcquire]
	m.set("cluster.acquires", float64(acq), "count")
	m.set("cluster.cold_frac", frac(tr.cold, acq), "frac")
	m.set("cluster.peak_pods", float64(res.metrics.PeakPods), "count")
	m.set("cluster.churn", float64(res.metrics.PoolGrown+res.metrics.PoolShrunk), "count")

	m.set("autoscale.ticks", float64(res.metrics.Ticks), "count")
	m.set("autoscale.s", l.targets.d.Seconds(), "s")
	m.set("autoscale.regen_s", l.onTick.d.Seconds()-synthServe, "s")
	m.set("autoscale.swaps", float64(res.swaps), "count")

	m.set("obs.events", float64(tr.events()), "count")
	m.set("obs.overhead_frac", serve/untraced.Seconds()-1, "frac")
}

// unattributed reports the part of the traced phases' wall time (window)
// outside every top-level layer span: the benchmark's own glue, such as
// building executors and adapters.
func (l *ledger) unattributed(m metricSet, window time.Duration) {
	rest := window.Seconds()
	for _, s := range l.spans {
		if s.Parent < 0 {
			rest -= s.End - s.Start
		}
	}
	m.set("ledger.unattributed_s", rest, "s")
	m.set("ledger.unattributed_frac", rest/window.Seconds(), "frac")
}

// hitFrac is the share of a pass's allocation decisions the hint tables
// covered, over every tenant's adapter.
func hitFrac(adapters []*adapter.Adapter) float64 {
	var hits, misses int64
	for _, a := range adapters {
		h, m, _ := a.Stats()
		hits, misses = hits+h, misses+m
	}
	return frac(hits, hits+misses)
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// conservation checks that every admitted request has exactly one
// completed trace, and returns how many admitted requests do not.
func (p *pipeline) conservation(res *serveResult, out *outcome) int {
	bad := 0
	for _, t := range p.tenants {
		traces := res.traces[t.name]
		seen := make([]int, len(t.reqs))
		for i := range traces {
			tr := &traces[i]
			if tr.RequestID < 0 || tr.RequestID >= len(t.reqs) || tr.Done < tr.Arrival || tr.E2E <= 0 || len(tr.Stages) == 0 {
				out.fail("tenant %s: malformed trace for request %d", t.name, tr.RequestID)
				continue
			}
			seen[tr.RequestID]++
		}
		missing := 0
		for _, n := range seen {
			if n != 1 {
				missing++
			}
		}
		if missing > 0 {
			out.fail("tenant %s: %d of %d admitted requests lack exactly one completed trace", t.name, missing, len(t.reqs))
		}
		bad += missing
	}
	return bad
}

// digest fingerprints a pass's simulated outputs: every trace of every
// tenant, stage by stage, plus the provisioning metrics.
func (p *pipeline) digest(res *serveResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, t := range p.tenants {
		h.Write([]byte(t.name))
		for _, tr := range res.traces[t.name] {
			put(int64(tr.RequestID))
			put(int64(tr.Arrival))
			put(int64(tr.Done))
			put(int64(tr.E2E))
			put(int64(tr.TotalMillicores))
			put(int64(tr.Decisions))
			put(int64(tr.Misses))
			put(int64(tr.Parked))
			for _, st := range tr.Stages {
				put(int64(st.Node))
				put(int64(st.Millicores))
				put(int64(st.Start))
				put(int64(st.End))
			}
		}
	}
	m := res.metrics
	put(int64(m.PodSeconds * 1e6))
	put(int64(m.PeakPods))
	put(int64(m.Ticks))
	put(int64(m.PoolGrown))
	put(int64(m.PoolShrunk))
	put(int64(res.swaps))
	return h.Sum64()
}

// summary is a pass's simulated outcome over all admitted requests.
type summary struct {
	requests       int
	attainment     float64
	meanMillicores float64
	podSeconds     float64
	p50, p99       time.Duration
	parked         int
	swaps          int
}

func (p *pipeline) summarize(res *serveResult) summary {
	var all []platform.Trace
	for _, t := range p.tenants {
		all = append(all, res.traces[t.name]...)
	}
	met := 0
	parked := 0
	for i := range all {
		if all[i].SLOMet() {
			met++
		}
		parked += all[i].Parked
	}
	e2e := platform.E2ESample(all)
	// Unfinished requests count as misses: attainment is over admitted
	// requests, not completed ones.
	return summary{
		requests:       p.requests,
		attainment:     float64(met) / float64(p.requests),
		meanMillicores: platform.MeanMillicores(all),
		podSeconds:     res.metrics.PodSeconds,
		p50:            e2e.PercentileDuration(50),
		p99:            e2e.PercentileDuration(99),
		parked:         parked,
		swaps:          res.swaps,
	}
}

// report writes the simulated figures: the workload's regime and the
// modelled system's outcome, identical on every run of a seed.
func (s summary) report(m metricSet) {
	m.set("slo_attainment", s.attainment, "frac")
	m.set("pod_seconds", s.podSeconds, "pod-s")
	m.set("sim_p50_ms", float64(s.p50)/float64(time.Millisecond), "ms")
	m.set("sim_p99_ms", float64(s.p99)/float64(time.Millisecond), "ms")
}
