// Package adapter implements Janus's provider-side Adapter (§III-D): the
// online component that, each time a decision group of a workflow becomes
// ready (its predecessor functions all finished), derives the remaining
// time budget, searches the developer's condensed hints table for that
// group's descendant cone, and sizes the group's pods accordingly. For
// chain workflows that is exactly the paper's per-function flow: look up
// the remaining chain suffix, resize the next function.
//
// On a table miss — a budget below anything the synthesizer explored,
// typically caused by unexpected runtime dynamics — the adapter escalates
// the next function to the maximum available resources to protect the SLO,
// and counts the miss. When the observed miss rate crosses a threshold
// (default 1%), it notifies the developer (via a callback here; via a
// message in the paper's deployment) to regenerate hints asynchronously;
// serving continues with sub-optimal escalations meanwhile.
package adapter

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"janus/internal/hints"
	"janus/internal/platform"
)

// DefaultMissThreshold is the paper's regeneration trigger (1%).
const DefaultMissThreshold = 0.01

// minDecisions is how many decisions an epoch must accumulate before its
// miss rate is trusted, so a lone early miss cannot fire the notification.
const minDecisions = 100

// Decision is one adaptation outcome.
type Decision struct {
	// Millicores is the allocation for the sub-workflow's head function.
	Millicores int
	// Hit reports whether the hints table covered the budget.
	Hit bool
	// Percentile is the head percentile of the matched hint (99 on miss).
	Percentile int
}

// deployed pairs a bundle with its epoch number so a decision's outcome
// can be attributed to the bundle that actually produced it, even when
// Replace lands between the lookup and the recording.
type deployed struct {
	b *hints.Bundle
	// epoch increments on every Replace.
	epoch int64
}

// Adapter serves adaptation decisions for one deployed bundle. It is safe
// for concurrent use, including Replace swapping in a regenerated bundle
// while decide traffic is in flight: the bundle is held behind an atomic
// pointer, so every decision reads one consistent bundle without taking
// the supervisor lock.
type Adapter struct {
	bundle atomic.Pointer[deployed]

	mu sync.Mutex
	// hits/misses accumulate across the adapter's lifetime (Stats).
	hits   int64
	misses int64
	// epoch is the current bundle's epoch number; epochHits/epochMisses
	// count only decisions made against that bundle. The regeneration
	// trigger reads these: after Replace swaps a regenerated bundle in,
	// pre-swap misses must not be able to re-fire the notification — the
	// new bundle deserves a fresh observation window. Decisions in flight
	// against the old bundle when Replace lands carry the old epoch and
	// are excluded from the new window (they still count in Stats).
	epoch       int64
	epochHits   int64
	epochMisses int64
	// epochBudgetLo/Hi bound the remaining budgets observed against the
	// current bundle — the drifted budget distribution an online
	// regeneration re-synthesizes against. Valid when epochBudgetSeen.
	epochBudgetLo   time.Duration
	epochBudgetHi   time.Duration
	epochBudgetSeen bool

	missThreshold float64
	onRegenerate  func(missRate float64)
	notified      bool
}

// Option customizes an Adapter.
type Option func(*Adapter)

// WithMissThreshold overrides the regeneration threshold.
func WithMissThreshold(th float64) Option {
	return func(a *Adapter) { a.missThreshold = th }
}

// WithRegenerateCallback installs the developer-notification hook fired
// (once) when the miss rate crosses the threshold. The callback runs on
// its own goroutine: regeneration is asynchronous by design.
func WithRegenerateCallback(fn func(missRate float64)) Option {
	return func(a *Adapter) { a.onRegenerate = fn }
}

// New validates the bundle and builds an adapter.
func New(b *hints.Bundle, opts ...Option) (*Adapter, error) {
	if b == nil {
		return nil, fmt.Errorf("adapter: nil bundle")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	a := &Adapter{missThreshold: DefaultMissThreshold}
	a.bundle.Store(&deployed{b: b})
	for _, o := range opts {
		o(a)
	}
	if a.missThreshold <= 0 || a.missThreshold >= 1 {
		return nil, fmt.Errorf("adapter: miss threshold %v outside (0, 1)", a.missThreshold)
	}
	return a, nil
}

// Bundle returns the deployed hints bundle.
func (a *Adapter) Bundle() *hints.Bundle { return a.bundle.Load().b }

// MissThreshold returns the miss rate above which the adapter asks for
// regeneration: DefaultMissThreshold unless WithMissThreshold set it.
func (a *Adapter) MissThreshold() float64 { return a.missThreshold }

// Decide returns the allocation for decision group `suffix` — the head of
// the sub-workflow formed by its descendant cone — given the remaining
// budget until the SLO deadline. It is DecideShaped with no shape.
func (a *Adapter) Decide(suffix int, remaining time.Duration) (Decision, error) {
	return a.DecideShaped(suffix, "", remaining)
}

// DecideShaped is Decide for a dynamic workflow's decision: when the
// serving plane resolved part of the group's shape at the readiness
// instant (the group's map member drew its width), the bundle's variant
// table for that (group, shape) pair answers — synthesized against the
// resolved width instead of the worst case, so tight budgets that would
// miss on the conservative base table still find a plan. With no shape
// resolved, or a bundle carrying no variant for the key (static bundles
// carry none at all), the base table answers.
//
// The bundle is snapshotted once, so a concurrent Replace cannot tear a
// decision across two bundles; the snapshot's epoch travels with the
// outcome so a decision against a just-replaced bundle cannot leak into
// the new bundle's regeneration window.
func (a *Adapter) DecideShaped(group int, shape string, remaining time.Duration) (Decision, error) {
	d := a.bundle.Load()
	b := d.b
	if group < 0 || group >= b.Stages() {
		return Decision{}, fmt.Errorf("adapter: suffix %d out of range [0, %d)", group, b.Stages())
	}
	t := b.Tables[group]
	if shape != "" {
		if st, ok := b.ShapedTable(group, shape); ok {
			t = st
		}
	}
	r, hit := t.Lookup(remaining)
	a.record(hit, d.epoch, remaining)
	if !hit {
		// Miss: scale to the ceiling to protect the SLO (§III-D).
		return Decision{Millicores: b.MaxMillicores, Hit: false, Percentile: 99}, nil
	}
	return Decision{Millicores: r.Millicores, Hit: true, Percentile: r.Percentile}, nil
}

// record counts one decision, both cumulatively (Stats) and — when the
// decision was made against the current bundle — in the bundle's epoch
// window. The regeneration trigger fires off the epoch window alone, so a
// freshly swapped-in bundle cannot be condemned by misses the previous
// bundle took, including misses from decisions that were already in
// flight when Replace landed (their stale epoch excludes them). The
// decision's remaining budget widens the epoch's observed budget range.
func (a *Adapter) record(hit bool, epoch int64, remaining time.Duration) {
	a.mu.Lock()
	if hit {
		a.hits++
	} else {
		a.misses++
	}
	if epoch != a.epoch {
		a.mu.Unlock()
		return
	}
	if hit {
		a.epochHits++
	} else {
		a.epochMisses++
	}
	if !a.epochBudgetSeen || remaining < a.epochBudgetLo {
		a.epochBudgetLo = remaining
	}
	if !a.epochBudgetSeen || remaining > a.epochBudgetHi {
		a.epochBudgetHi = remaining
	}
	a.epochBudgetSeen = true
	epochTotal := a.epochHits + a.epochMisses
	shouldNotify := !a.notified &&
		a.onRegenerate != nil &&
		epochTotal >= minDecisions &&
		a.epochMissRateLocked() > a.missThreshold
	var rate float64
	if shouldNotify {
		a.notified = true
		rate = a.epochMissRateLocked()
	}
	cb := a.onRegenerate
	a.mu.Unlock()
	if shouldNotify {
		go cb(rate)
	}
}

func (a *Adapter) missRateLocked() float64 {
	total := a.hits + a.misses
	if total == 0 {
		return 0
	}
	return float64(a.misses) / float64(total)
}

func (a *Adapter) epochMissRateLocked() float64 {
	total := a.epochHits + a.epochMisses
	if total == 0 {
		return 0
	}
	return float64(a.epochMisses) / float64(total)
}

// Stats reports cumulative hits, misses, and the miss rate across the
// adapter's lifetime (bundle swaps do not reset these).
func (a *Adapter) Stats() (hits, misses int64, missRate float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hits, a.misses, a.missRateLocked()
}

// EpochStats reports hits, misses, and the miss rate observed against the
// current bundle only — the window the regeneration trigger watches.
func (a *Adapter) EpochStats() (hits, misses int64, missRate float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epochHits, a.epochMisses, a.epochMissRateLocked()
}

// EpochBudgetRange reports the smallest and largest remaining budgets
// decided against the current bundle — the drifted budget distribution an
// online regeneration re-synthesizes hints for. ok is false before the
// epoch's first decision. The low bound can be negative: a request past
// its deadline still asks for an allocation.
func (a *Adapter) EpochBudgetRange() (lo, hi time.Duration, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epochBudgetLo, a.epochBudgetHi, a.epochBudgetSeen
}

// Replace swaps in a regenerated bundle (the asynchronous regeneration
// completing), re-arms the notification, and opens a fresh observation
// epoch: the trigger's window resets so only decisions against the new
// bundle can re-fire it, while the cumulative Stats counters are kept.
func (a *Adapter) Replace(b *hints.Bundle) error {
	if b == nil {
		return fmt.Errorf("adapter: nil bundle")
	}
	if err := b.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epoch++
	a.bundle.Store(&deployed{b: b, epoch: a.epoch})
	a.notified = false
	a.epochHits = 0
	a.epochMisses = 0
	a.epochBudgetSeen = false
	a.epochBudgetLo = 0
	a.epochBudgetHi = 0
	return nil
}

// Allocator adapts an Adapter to the platform's Allocator interface so the
// executor can serve requests under Janus. The display name distinguishes
// Janus variants (the tables differ, the adapter logic does not).
type Allocator struct {
	*Adapter
	System string
	// ShapeBlind discards resolved-shape keys before deciding, forcing
	// every dynamic decision onto the conservative base tables. This is
	// the static worst-case arm of the trigger experiment: same bundle,
	// same budgets, shape information withheld.
	ShapeBlind bool
}

// Name implements platform.Allocator.
func (al *Allocator) Name() string { return al.System }

// Allocate implements platform.Allocator. It is AllocateShaped with no
// shape.
func (al *Allocator) Allocate(req *platform.Request, group int, remaining time.Duration) (int, bool) {
	return al.AllocateShaped(req, group, "", remaining)
}

// AllocateShaped implements platform.ShapeAwareAllocator: a dynamic
// workflow's decision carries the group's resolved-shape key, answered by
// the bundle's variant table when one exists and by the conservative base
// table otherwise.
func (al *Allocator) AllocateShaped(req *platform.Request, group int, shape string, remaining time.Duration) (int, bool) {
	if al.ShapeBlind {
		shape = ""
	}
	d, err := al.DecideShaped(group, shape, remaining)
	if err != nil {
		// Group indices come from the executor and bundles are validated
		// against the workflow at deployment; a mismatch is a bug.
		panic(err)
	}
	return d.Millicores, d.Hit
}

// AllocEpoch implements platform.MemoizableAllocator: the adapter's
// decisions depend on the remaining budget only through its millisecond
// floor (hints.Table.Lookup truncates to whole milliseconds) and on the
// deployed bundle, which changes exactly when Replace advances the epoch.
func (al *Allocator) AllocEpoch() int64 { return al.bundle.Load().epoch }

// RecordCached implements platform.MemoizableAllocator: a decision served
// from the platform's memo replays the same bookkeeping Decide performs —
// lifetime and epoch hit/miss counters, the epoch's observed budget range
// at the true remaining value, and the regeneration trigger — attributed
// to the epoch the memoized decision was made under, exactly as an
// in-flight decision against a just-replaced bundle would be.
func (al *Allocator) RecordCached(group int, remaining time.Duration, epoch int64, hit bool) {
	al.record(hit, epoch, remaining)
}
