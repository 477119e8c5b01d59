// Package autoscale closes the provider side of the bilateral loop while
// traffic is in flight. It contributes the two online controllers a
// non-stationary replay run plugs into platform.RunReplay:
//
//   - Autoscaler, an elastic warm-pool controller: per-function pool
//     targets recomputed each control interval from observed demand —
//     scale-up by the cold-start deficit when the pool ran dry,
//     idle-pod shedding when acquisitions park on exhausted node
//     capacity (the queue warm pods cannot fix), scale-down one pod at
//     a time once utilization stays low past a cooldown. Scale-up is
//     charged honestly: the executor builds each ordered pod only after
//     the full cold-start delay (see cluster.AddWarmPod and the
//     pool-churn accounting).
//
//   - Regen, the one regeneration loop: it watches the adapter's
//     per-epoch miss rate during the replay, and when drifted traffic
//     pushes it over the adapter's miss threshold (the paper's 1%,
//     adapter.DefaultMissThreshold, unless WithMissThreshold set
//     another), re-synthesizes the hint bundle against the observed (drifted)
//     budget distribution — the adapter's EpochBudgetRange supplies the
//     floor — and hot-swaps it via the adapter's atomic Replace after a
//     virtual regeneration latency, recording the swap instant. It runs
//     on the replay's virtual clock, which is what lets replay
//     experiments compare regeneration on and off request for request.
package autoscale

import (
	"fmt"
	"time"

	"janus/internal/adapter"
	"janus/internal/hints"
	"janus/internal/obs"
	"janus/internal/platform"
)

// Config parameterizes the elastic warm-pool controller.
type Config struct {
	// MinPool and MaxPool clamp every function's pool target.
	MinPool, MaxPool int
	// LowUtilization is the busy/(busy+warm) occupancy below which a
	// quiet function becomes a scale-down candidate (default 0.5).
	LowUtilization float64
	// Cooldown is how long after a function's last scale-up (or the run
	// start) its pool must stay quiet before shrinking (default 10 s):
	// tearing a pool down in the trough of one burst only to rebuild it
	// cold in the next is the thrash the cooldown prevents.
	Cooldown time.Duration
	// Tracer, when non-nil, receives a KindScaleAudit event for every
	// target the controller moves — the observed deficit, queue
	// pressure, or cooldown state that explains the decision. Nil (the
	// default) costs nothing; the replay engine separately records the
	// applied KindPoolScale actions.
	Tracer obs.Tracer
}

// DefaultConfig returns a general-purpose controller setting — pools
// breathe between 1 and 12 pods, shrink below 50% occupancy, and hold
// 10 s after growing. The suite's replay experiment tunes its own Config
// to its schedule (see internal/experiment's replay scenario) rather
// than using these values.
func DefaultConfig() Config {
	return Config{MinPool: 1, MaxPool: 12, LowUtilization: 0.5, Cooldown: 10 * time.Second}
}

// Autoscaler recomputes per-function warm-pool targets each control
// interval. It implements platform.PoolController and carries per-run
// state (last scale-up instants), so build one per replay run.
type Autoscaler struct {
	cfg Config
	// lastGrow is each function's most recent scale-up instant; absent
	// means never grown, treated as the run start so the cooldown also
	// damps an immediate teardown of the deployed pools.
	lastGrow map[string]time.Duration
}

// New validates the configuration and builds a controller.
func New(cfg Config) (*Autoscaler, error) {
	if cfg.MinPool < 0 {
		return nil, fmt.Errorf("autoscale: MinPool %d negative", cfg.MinPool)
	}
	if cfg.MaxPool < cfg.MinPool || cfg.MaxPool < 1 {
		return nil, fmt.Errorf("autoscale: MaxPool %d below MinPool %d (or < 1)", cfg.MaxPool, cfg.MinPool)
	}
	if cfg.LowUtilization < 0 || cfg.LowUtilization > 1 {
		return nil, fmt.Errorf("autoscale: LowUtilization %v outside [0, 1]", cfg.LowUtilization)
	}
	if cfg.Cooldown < 0 {
		return nil, fmt.Errorf("autoscale: negative cooldown %v", cfg.Cooldown)
	}
	return &Autoscaler{cfg: cfg, lastGrow: make(map[string]time.Duration)}, nil
}

// Name implements platform.PoolController.
func (a *Autoscaler) Name() string { return "autoscaler" }

// Targets implements platform.PoolController. The two queues a request
// can wait in have opposite remedies, and the controller keeps them
// apart:
//
//   - cold starts mean the warm pool ran dry while node capacity
//     existed — the pool was too shallow, so grow it by the observed
//     deficit (every cold acquisition is one pod the pool was short);
//   - parked acquisitions mean no node had the millicores free — warm
//     pods cannot help, their idle reservations are part of the problem,
//     so shed one instead of ratcheting the target up on a queue that
//     more pooling would only lengthen.
//
// Absent either signal, a pool that stays below the utilization floor
// past the cooldown drains one pod per interval toward MinPool.
func (a *Autoscaler) Targets(now time.Duration, stats []platform.ReplayFunctionStats) map[string]int {
	out := make(map[string]int, len(stats))
	for _, fs := range stats {
		target := clamp(fs.Target, a.cfg.MinPool, a.cfg.MaxPool)
		// moved names which branch fired; the human-readable audit reason
		// is only formatted under the Tracer guard — a nil tracer must not
		// pay a Sprintf per function per tick.
		moved := scaleHold
		switch {
		case fs.ColdStarts > 0 && fs.Queued == 0:
			target = clamp(target+fs.ColdStarts, a.cfg.MinPool, a.cfg.MaxPool)
			if target > fs.Target {
				a.lastGrow[fs.Function] = now
			}
			moved = scaleGrow
		case fs.Queued > 0:
			// Capacity contention (possibly alongside cold starts, when
			// the cluster is genuinely overloaded): free idle
			// reservations for the parked work, ignoring the cooldown —
			// but never below the pods actually executing, or the
			// contention's end would greet the still-hot demand with a
			// shredded pool and a cold-start storm.
			target = clamp(max(fs.Busy, target-1), a.cfg.MinPool, a.cfg.MaxPool)
			moved = scaleShed
		case a.quietPastCooldown(fs.Function, now) && occupancy(fs) < a.cfg.LowUtilization:
			// Shrink gently: one pod per interval, so a trough between
			// diurnal peaks drains the pool instead of cliff-dropping it.
			target = clamp(target-1, a.cfg.MinPool, a.cfg.MaxPool)
			moved = scaleShrink
		}
		out[fs.Function] = target
		if a.cfg.Tracer != nil && target != fs.Target && moved != scaleHold {
			var reason string
			switch moved {
			case scaleGrow:
				reason = fmt.Sprintf("grow: cold-start deficit %d", fs.ColdStarts)
			case scaleShed:
				reason = fmt.Sprintf("shed: %d parked on node capacity, %d busy", fs.Queued, fs.Busy)
			case scaleShrink:
				reason = fmt.Sprintf("shrink: occupancy %.2f below %.2f, quiet %v past cooldown %v",
					occupancy(fs), a.cfg.LowUtilization, now-a.lastGrow[fs.Function], a.cfg.Cooldown)
			}
			a.cfg.Tracer.Emit(obs.Event{At: now, Kind: obs.KindScaleAudit, Request: -1,
				Function: fs.Function, Value: int64(target), Aux: int64(fs.Target), Reason: reason})
		}
	}
	return out
}

// scaleMove names the Targets branch that moved a pool target, so the
// audit reason can be formatted lazily (only when a tracer is attached).
type scaleMove uint8

const (
	scaleHold scaleMove = iota
	scaleGrow
	scaleShed
	scaleShrink
)

func (a *Autoscaler) quietPastCooldown(fn string, now time.Duration) bool {
	return now-a.lastGrow[fn] >= a.cfg.Cooldown
}

// occupancy is the fraction of a function's pods currently executing;
// a function with no pods at all counts as fully idle.
func occupancy(fs platform.ReplayFunctionStats) float64 {
	total := fs.Busy + fs.Warm
	if total == 0 {
		return 0
	}
	return float64(fs.Busy) / float64(total)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Swap records one hint-bundle hot-swap of a replay run.
type Swap struct {
	// At is the virtual instant the regenerated bundle replaced the
	// deployed one (detection instant + RegenConfig.Latency).
	At time.Duration
	// MissRate is the epoch miss rate that triggered the regeneration.
	MissRate float64
	// FloorMs is the observed budget floor the bundle was re-synthesized
	// against.
	FloorMs int
}

// RegenConfig parameterizes the online regeneration hook.
type RegenConfig struct {
	// Adapter is the deployed adapter whose epoch stats are watched and
	// whose bundle is hot-swapped.
	Adapter *adapter.Adapter
	// Synthesize re-runs the developer-side pipeline against the drifted
	// budget distribution: floorMs is the smallest remaining budget the
	// adapter observed this epoch (clamped to >= 1 ms). It must be
	// deterministic for replay runs to be.
	Synthesize func(floorMs int) (*hints.Bundle, error)
	// MinDecisions is how many epoch decisions must accumulate before the
	// miss rate is trusted (default 50).
	MinDecisions int64
	// Latency is the virtual delay between detection and the hot-swap —
	// the time the asynchronous profiling + synthesis run takes in the
	// modeled world (default 2 s). Serving continues on the stale bundle
	// meanwhile, exactly the paper's regeneration trade-off.
	Latency time.Duration
	// Tenant labels this hook's audit events in a multi-tenant replay
	// (each tenant regenerates independently); used only with Tracer.
	Tenant string
	// Tracer, when non-nil, receives a KindScaleAudit event at each
	// regeneration detection (the observed miss rate and budget floor
	// that triggered it) and a KindSwap event at the instant the
	// regenerated bundle is hot-swapped in.
	Tracer obs.Tracer
}

// Regen is the online bilateral hook: plug Tick into
// platform.ReplayConfig.OnTick. It is single-goroutine like the replay
// engine that drives it.
type Regen struct {
	cfg      RegenConfig
	inFlight bool
	swaps    []Swap
	failures int
}

// NewRegen validates the configuration and builds the hook.
func NewRegen(cfg RegenConfig) (*Regen, error) {
	if cfg.Adapter == nil {
		return nil, fmt.Errorf("autoscale: regen needs an adapter")
	}
	if cfg.Synthesize == nil {
		return nil, fmt.Errorf("autoscale: regen needs a synthesize hook")
	}
	if cfg.MinDecisions == 0 {
		cfg.MinDecisions = 50
	}
	if cfg.MinDecisions < 0 {
		return nil, fmt.Errorf("autoscale: negative MinDecisions %d", cfg.MinDecisions)
	}
	if cfg.Latency == 0 {
		cfg.Latency = 2 * time.Second
	}
	if cfg.Latency < 0 {
		return nil, fmt.Errorf("autoscale: negative regen latency %v", cfg.Latency)
	}
	return &Regen{cfg: cfg}, nil
}

// Tick checks the adapter's epoch window at a control instant. When the
// miss rate has crossed the adapter's own MissThreshold (and no
// regeneration is already in flight), it synthesizes a bundle against
// the observed budget floor now and returns the hot-swap as a delayed
// action: the adapter keeps serving the stale bundle until the swap
// instant, when Replace atomically installs the new one, resets the epoch
// window, and the swap is recorded. A failed synthesis is counted
// (Failures) and audited, and the next tick retries.
func (r *Regen) Tick(now time.Duration) []platform.ReplayAction {
	if r.inFlight {
		return nil
	}
	threshold := r.cfg.Adapter.MissThreshold()
	hits, misses, rate := r.cfg.Adapter.EpochStats()
	if hits+misses < r.cfg.MinDecisions || rate <= threshold {
		return nil
	}
	lo, _, ok := r.cfg.Adapter.EpochBudgetRange()
	if !ok {
		return nil
	}
	floorMs := int(lo / time.Millisecond)
	if floorMs < 1 {
		floorMs = 1
	}
	bundle, err := r.cfg.Synthesize(floorMs)
	if err != nil {
		// Regeneration failing must not take serving down; the stale
		// bundle keeps escalating misses and the next tick retries.
		r.failures++
		if r.cfg.Tracer != nil {
			r.cfg.Tracer.Emit(obs.Event{At: now, Kind: obs.KindScaleAudit, Request: -1,
				Tenant: r.cfg.Tenant, Value: int64(floorMs), Aux: ppm(rate),
				Reason: fmt.Sprintf("regen: resynthesis at budget floor %dms failed: %v", floorMs, err)})
		}
		return nil
	}
	r.inFlight = true
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Emit(obs.Event{At: now, Kind: obs.KindScaleAudit, Request: -1,
			Tenant: r.cfg.Tenant, Value: int64(floorMs), Aux: ppm(rate),
			Reason: fmt.Sprintf("regen: epoch miss rate %.4f over threshold %.4f after %d decisions; resynthesizing at budget floor %dms",
				rate, threshold, hits+misses, floorMs)})
	}
	return []platform.ReplayAction{{Delay: r.cfg.Latency, Do: func(at time.Duration) {
		if err := r.cfg.Adapter.Replace(bundle); err == nil {
			r.swaps = append(r.swaps, Swap{At: at, MissRate: rate, FloorMs: floorMs})
			if r.cfg.Tracer != nil {
				r.cfg.Tracer.Emit(obs.Event{At: at, Kind: obs.KindSwap, Request: -1,
					Tenant: r.cfg.Tenant, Value: int64(floorMs), Aux: ppm(rate),
					Reason: "hot-swap applied"})
			}
		}
		r.inFlight = false
	}}}
}

// ppm converts a rate in [0, 1] to integer parts per million — the
// fixed-point form audit events carry (Event values are int64).
func ppm(rate float64) int64 { return int64(rate * 1e6) }

// Swaps returns the run's hot-swap record, in swap order.
func (r *Regen) Swaps() []Swap { return append([]Swap(nil), r.swaps...) }

// Failures counts the regenerations whose Synthesize hook failed.
func (r *Regen) Failures() int { return r.failures }
