package platform

import (
	"fmt"
	"time"

	"janus/internal/cluster"
	"janus/internal/obs"
)

// This file is the serving plane's replay entry point: RunMixed's
// discrete-event core with request admission driven by a non-stationary
// schedule's clock (requests carry arrival instants materialized from a
// replay.Schedule via WorkloadConfig.Arrivals) and a control loop
// interleaved on the same virtual clock. Each control tick observes
// per-function demand — busy and warm pods, parked acquisitions, cold
// starts — lets an elastic PoolController retarget the warm pools (pods
// built by scale-up pay the cold-start delay before they serve anyone,
// charged through cluster.AddWarmPod's churn accounting), fires the
// bilateral OnTick hook (hint-bundle regeneration lives there), and
// integrates the cluster's live pod footprint into pod-seconds — the
// provisioning-cost metric the replay experiments trade against SLO
// attainment.

// ReplayFunctionStats is one function's view of the serving plane at a
// control instant.
type ReplayFunctionStats struct {
	// Function is the deployed function name.
	Function string
	// Busy and Warm are the instantaneous busy and idle-warm pod counts.
	Busy, Warm int
	// Target is the warm pool's current target depth.
	Target int
	// Queued counts pod acquisitions for this function currently parked
	// on exhausted cluster capacity.
	Queued int
	// ColdStarts and Acquires count events since the previous tick.
	ColdStarts, Acquires int
}

// PoolController recomputes per-function warm-pool targets each control
// interval — the provider side's elastic half of the replay loop.
type PoolController interface {
	// Name identifies the controller in experiment output.
	Name() string
	// Targets maps function names to new pool targets, given the
	// per-function stats (sorted by function name). Functions absent
	// from the result keep their current target.
	Targets(now time.Duration, stats []ReplayFunctionStats) map[string]int
}

// ReplayAction is a deferred effect an OnTick hook schedules on the run's
// virtual clock: detection now, consequence after Delay — the shape of
// asynchronous hint regeneration.
type ReplayAction struct {
	Delay time.Duration
	Do    func(now time.Duration)
}

// ReplayConfig drives a replay run's control loop.
type ReplayConfig struct {
	// Interval is the control-loop period (required, > 0). The controller
	// runs, the OnTick hook fires, and pod-seconds integrate once per
	// interval, starting at virtual time zero.
	Interval time.Duration
	// Horizon is the schedule's end: ticks continue until the later of
	// the horizon and the last request's completion, so static and
	// elastic configurations pay for their pools over the same span.
	Horizon time.Duration
	// Controller elastically retargets warm pools; nil serves the whole
	// replay on the statically sized pools the cluster deployed with.
	Controller PoolController
	// OnTick, when non-nil, is invoked at every control instant after the
	// controller; returned actions run after their delays. The online
	// bilateral hook — miss-rate-triggered hint regeneration and
	// hot-swap — plugs in here.
	OnTick func(now time.Duration) []ReplayAction
	// Triggers is the external-event queue riding the same virtual
	// clock: timers and stream events that start requests (admission at
	// the fire instant instead of the request's Arrival) or resume them
	// at an await step. Every await step of every request must be
	// covered by a trigger, or prepareRun rejects the run.
	Triggers []Trigger
}

// ReplayMetrics summarizes a replay run's provisioning cost.
type ReplayMetrics struct {
	// PodSeconds is the rectangle-rule integral of the cluster's live pod
	// count (busy + idle warm) sampled at control instants — what keeping
	// the pools provisioned cost over the run.
	PodSeconds float64
	// PeakPods is the largest sampled pod footprint.
	PeakPods int
	// Ticks counts control instants.
	Ticks int
	// PoolGrown and PoolShrunk are the cluster's pool-churn counters:
	// warm pods built by scale-up (each after a full cold start) and idle
	// pods destroyed by scale-down.
	PoolGrown, PoolShrunk int
}

// replayWindow accumulates per-function observations between control
// ticks, indexed by cluster function index. queued is a live gauge
// (incremented when an acquisition parks, decremented when it finally
// lands); cold and acquires are window counters reset at each tick.
type replayWindow struct {
	queued   []int
	cold     []int
	acquires []int
	// fns lists the deployed functions sorted by name and idx their
	// cluster indexes; stats is the snapshot's reusable buffer. The
	// deployed function set is fixed once serving starts, so each
	// control tick refills the same slice instead of rebuilding it.
	fns   []string
	idx   []int
	stats []ReplayFunctionStats
}

func newReplayWindow(cl *cluster.Cluster) *replayWindow {
	fns := cl.Functions()
	w := &replayWindow{
		queued:   make([]int, len(fns)),
		cold:     make([]int, len(fns)),
		acquires: make([]int, len(fns)),
		fns:      fns,
		idx:      make([]int, len(fns)),
		stats:    make([]ReplayFunctionStats, len(fns)),
	}
	for i, fn := range fns {
		w.idx[i], _ = cl.Index(fn)
	}
	return w
}

func (w *replayWindow) reset() {
	clear(w.cold)
	clear(w.acquires)
}

// snapshot fills the per-function stats for a control tick, sorted by
// function name so controllers see a deterministic order. The returned
// slice is reused by the next tick; controllers must not retain it.
func (w *replayWindow) snapshot(cl *cluster.Cluster) []ReplayFunctionStats {
	for i, fn := range w.fns {
		target, _ := cl.PoolTarget(fn)
		x := w.idx[i]
		w.stats[i] = ReplayFunctionStats{
			Function:   fn,
			Busy:       cl.BusyPods(fn),
			Warm:       cl.WarmPods(fn),
			Target:     target,
			Queued:     w.queued[x],
			ColdStarts: w.cold[x],
			Acquires:   w.acquires[x],
		}
	}
	return w.stats
}

// RunReplay serves the tenants' schedule-derived request streams on one
// shared cluster with the replay control loop interleaved: admissions
// fire at their schedule instants, the controller retargets warm pools
// each interval (scale-up pods land only after the cold-start delay;
// shrunk pools shed idle pods immediately and drain busy ones through
// Release), the OnTick hook closes the bilateral loop, and pod-seconds
// accumulate until both the horizon has passed and every request has
// completed. Traces are returned per tenant exactly as RunMixed returns
// them, alongside the run's provisioning metrics.
func (e *Executor) RunReplay(tenants []TenantWorkload, cfg ReplayConfig) (map[string][]Trace, *ReplayMetrics, error) {
	if cfg.Interval <= 0 {
		return nil, nil, fmt.Errorf("platform: replay needs a positive control interval, got %v", cfg.Interval)
	}
	if cfg.Horizon < 0 {
		return nil, nil, fmt.Errorf("platform: negative replay horizon %v", cfg.Horizon)
	}
	st, err := e.prepareRun(tenants, cfg.Triggers)
	if err != nil {
		return nil, nil, err
	}
	st.window = newReplayWindow(st.cluster)
	metrics := &ReplayMetrics{}
	// inflight counts scale-up pods being built per function (by cluster
	// index), so a slow cold start is not double-ordered by the next tick.
	inflight := make([]int, st.fns)
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		if st.failed != nil {
			return
		}
		metrics.Ticks++
		pods := st.cluster.TotalPods()
		if pods > metrics.PeakPods {
			metrics.PeakPods = pods
		}
		metrics.PodSeconds += float64(pods) * cfg.Interval.Seconds()
		stats := st.window.snapshot(st.cluster)
		if st.om != nil {
			st.om.observePools(stats, st.window.idx)
		}
		shedAny := false
		if cfg.Controller != nil {
			targets := cfg.Controller.Targets(now, stats)
			for i, fs := range stats {
				tgt, ok := targets[fs.Function]
				if !ok || tgt < 0 || tgt == fs.Target {
					continue
				}
				if err := st.cluster.SetPoolTarget(fs.Function, tgt); err != nil {
					st.fail(err)
					return
				}
				if st.tracer != nil {
					st.tracer.Emit(obs.Event{At: now, Kind: obs.KindPoolScale, Request: -1,
						Function: fs.Function, Value: int64(tgt), Aux: int64(fs.Target)})
				}
				if tgt > fs.Target {
					st.orderWarmPods(fs.Function, st.window.idx[i], tgt, inflight)
				} else {
					shed := false
					for st.cluster.WarmPods(fs.Function) > tgt {
						if err := st.cluster.RemoveWarmPod(fs.Function); err != nil {
							st.fail(err)
							return
						}
						shed = true
					}
					// Shedding freed node capacity; parked acquisitions
					// must get first claim on it now, not at the next
					// unrelated pod release — freeing reservations for
					// queued work is the whole point of the shed.
					if shed {
						shedAny = true
						st.wake()
					}
				}
			}
		}
		if cfg.OnTick != nil {
			for _, a := range cfg.OnTick(now) {
				if a.Do == nil {
					continue
				}
				st.engine.Schedule(a.Delay, a.Do)
			}
		}
		st.window.reset()
		// Permanent starvation check: this tick was just popped, so an
		// empty event queue means no completions, admissions, or
		// in-flight pool builds will ever run — only future ticks. A
		// tick that just shed idle pods may still rescue the parked
		// work (the controller lowers contended targets further each
		// interval), so the run continues while shedding makes
		// progress; once a tick sheds nothing with the queue empty and
		// requests unfinished, rescheduling would only spin the virtual
		// clock. Stopping lets the engine drain so collect() reports
		// the same starvation diagnostic RunMixed gives.
		if st.done < st.total && st.engine.Pending() == 0 && !shedAny {
			return
		}
		if st.done < st.total || now < cfg.Horizon {
			st.engine.Schedule(cfg.Interval, tick)
		}
	}
	st.engine.ScheduleAt(0, tick)
	st.engine.Run()
	traces, err := st.collect()
	if err != nil {
		return nil, nil, err
	}
	metrics.PoolGrown, metrics.PoolShrunk = st.cluster.PoolChurn()
	return traces, metrics, nil
}

// orderWarmPods schedules cold-start builds for a raised pool target: the
// deficit between the target and the pods already warm or being built.
// Each build lands after the executor's full cold-start delay, re-checks
// the (possibly re-lowered) target, and silently yields when the cluster
// has no capacity. A yielded build is not retried while the target holds
// steady (re-ordering idle pods against a full cluster would spend the
// capacity the running work is queued on): the pool refills through
// Release as busy pods return, and the next target movement re-orders
// whatever deficit remains. idx is fn's cluster index.
func (st *runState) orderWarmPods(fn string, idx, target int, inflight []int) {
	deficit := target - st.cluster.WarmPods(fn) - inflight[idx]
	for i := 0; i < deficit; i++ {
		inflight[idx]++
		st.engine.Schedule(st.ex.cfg.ColdStartup, func(time.Duration) {
			inflight[idx]--
			if st.failed != nil {
				return
			}
			cur, err := st.cluster.PoolTarget(fn)
			if err != nil {
				st.fail(err)
				return
			}
			if st.cluster.WarmPods(fn) >= cur {
				return
			}
			if _, err := st.cluster.AddWarmPod(fn); err != nil {
				return
			}
		})
	}
}
