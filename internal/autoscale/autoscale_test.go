package autoscale

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"janus/internal/adapter"
	"janus/internal/hints"
	"janus/internal/obs"
	"janus/internal/platform"
)

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{MinPool: -1, MaxPool: 4},
		{MinPool: 4, MaxPool: 2},
		{MinPool: 0, MaxPool: 0},
		{MinPool: 1, MaxPool: 4, LowUtilization: 1.5},
		{MinPool: 1, MaxPool: 4, Cooldown: -time.Second},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func stats(fn string, busy, warm, target, queued, cold int) platform.ReplayFunctionStats {
	return platform.ReplayFunctionStats{Function: fn, Busy: busy, Warm: warm, Target: target, Queued: queued, ColdStarts: cold}
}

func TestTargetsScaleUpOnColdStartDeficit(t *testing.T) {
	a, err := New(Config{MinPool: 1, MaxPool: 10, LowUtilization: 0.5, Cooldown: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out := a.Targets(time.Second, []platform.ReplayFunctionStats{
		stats("hot", 4, 0, 3, 0, 3), // 3 cold starts: the pool was 3 pods short
		stats("ok", 1, 2, 3, 0, 0),  // no pressure, occupancy 1/3 but inside cooldown
	})
	if out["hot"] != 6 {
		t.Fatalf("dry pool target %d, want 3+3=6", out["hot"])
	}
	if out["ok"] != 3 {
		t.Fatalf("quiet pool resized to %d inside the cooldown", out["ok"])
	}
	// Deficits beyond MaxPool clamp.
	out = a.Targets(2*time.Second, []platform.ReplayFunctionStats{stats("hot", 9, 0, 8, 0, 50)})
	if out["hot"] != 10 {
		t.Fatalf("clamped target %d, want MaxPool 10", out["hot"])
	}
}

func TestTargetsShedIdleOnCapacityContention(t *testing.T) {
	a, err := New(Config{MinPool: 1, MaxPool: 10, LowUtilization: 0.5, Cooldown: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Parked acquisitions mean node capacity ran out: warm pods cannot
	// help, so the controller sheds one — immediately, cooldown or not —
	// even when cold starts happened in the same window (an overloaded
	// cluster must not ratchet pools up).
	out := a.Targets(time.Second, []platform.ReplayFunctionStats{
		stats("parked", 5, 2, 6, 4, 0),
		stats("both", 5, 2, 6, 4, 2),
	})
	if out["parked"] != 5 {
		t.Fatalf("capacity-contended pool target %d, want 5", out["parked"])
	}
	if out["both"] != 5 {
		t.Fatalf("overloaded pool target %d, want 5 (no ratchet)", out["both"])
	}
}

func TestTargetsScaleDownAfterCooldown(t *testing.T) {
	a, err := New(Config{MinPool: 1, MaxPool: 10, LowUtilization: 0.5, Cooldown: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	idle := stats("f", 0, 6, 6, 0, 0)
	// Before the cooldown (measured from the run start) the pool holds.
	if out := a.Targets(time.Second, []platform.ReplayFunctionStats{idle}); out["f"] != 6 {
		t.Fatalf("pool shrank inside the initial cooldown: %d", out["f"])
	}
	// Past the cooldown it drains one pod per tick down to MinPool.
	if out := a.Targets(6*time.Second, []platform.ReplayFunctionStats{idle}); out["f"] != 5 {
		t.Fatalf("first shrink target %d, want 5", out["f"])
	}
	cur := idle
	now := 7 * time.Second
	for i := 0; i < 20; i++ {
		out := a.Targets(now, []platform.ReplayFunctionStats{cur})
		cur.Target = out[cur.Function]
		cur.Warm = cur.Target
		now += time.Second
	}
	if cur.Target != 1 {
		t.Fatalf("idle pool drained to %d, want MinPool 1", cur.Target)
	}
	// Busy pools do not shrink even past the cooldown.
	busy := stats("g", 5, 1, 6, 0, 0)
	if out := a.Targets(time.Minute, []platform.ReplayFunctionStats{busy}); out["g"] != 6 {
		t.Fatalf("high-occupancy pool shrank to %d", out["g"])
	}
}

func TestTargetsCooldownRestartsOnGrowth(t *testing.T) {
	a, err := New(Config{MinPool: 1, MaxPool: 10, LowUtilization: 0.5, Cooldown: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Growth at t=8s: the pool must hold until t=13s even when idle.
	if out := a.Targets(8*time.Second, []platform.ReplayFunctionStats{stats("f", 2, 0, 2, 0, 3)}); out["f"] != 5 {
		t.Fatalf("growth target %d", out["f"])
	}
	idle := stats("f", 0, 5, 5, 0, 0)
	if out := a.Targets(12*time.Second, []platform.ReplayFunctionStats{idle}); out["f"] != 5 {
		t.Fatalf("pool shrank %v after growing (cooldown 5s): %d", 4*time.Second, out["f"])
	}
	if out := a.Targets(13*time.Second, []platform.ReplayFunctionStats{idle}); out["f"] != 4 {
		t.Fatalf("pool held past the cooldown: %d", out["f"])
	}
}

// regenBundle builds a minimal valid bundle whose suffix-0 table covers
// budgets [fromMs, 5000].
func regenBundle(t testing.TB, fromMs int) *hints.Bundle {
	t.Helper()
	tab, err := hints.Condense(&hints.RawTable{Suffix: 0, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: fromMs, HeadMillicores: 3000, HeadPercentile: 99},
		{BudgetMs: 5000, HeadMillicores: 1000, HeadPercentile: 80},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b := &hints.Bundle{Workflow: "w", Batch: 1, Weight: 1, SLOMs: 5000, MaxMillicores: 3000, Tables: []*hints.Table{tab}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewRegenValidation(t *testing.T) {
	a, err := adapter.New(regenBundle(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	synth := func(int) (*hints.Bundle, error) { return regenBundle(t, 100), nil }
	if _, err := NewRegen(RegenConfig{Synthesize: synth}); err == nil {
		t.Fatal("regen without adapter accepted")
	}
	if _, err := NewRegen(RegenConfig{Adapter: a}); err == nil {
		t.Fatal("regen without synthesize hook accepted")
	}
	if _, err := NewRegen(RegenConfig{Adapter: a, Synthesize: synth, Latency: -time.Second}); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestRegenTriggersSwapAndRecordsInstant(t *testing.T) {
	a, err := adapter.New(regenBundle(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	var floors []int
	r, err := NewRegen(RegenConfig{
		Adapter:      a,
		MinDecisions: 10,
		Latency:      500 * time.Millisecond,
		Synthesize: func(floorMs int) (*hints.Bundle, error) {
			floors = append(floors, floorMs)
			return regenBundle(t, floorMs), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Quiet adapter: no action.
	if acts := r.Tick(time.Second); acts != nil {
		t.Fatalf("tick on a quiet adapter returned %d actions", len(acts))
	}
	// Drifted traffic: budgets far below the table minimum, all misses.
	for i := 0; i < 12; i++ {
		if _, err := a.Decide(0, 400*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	acts := r.Tick(2 * time.Second)
	if len(acts) != 1 || acts[0].Delay != 500*time.Millisecond {
		t.Fatalf("drifted tick actions = %+v", acts)
	}
	if len(floors) != 1 || floors[0] != 400 {
		t.Fatalf("synthesize floors = %v, want [400]", floors)
	}
	// While the regeneration is in flight, further ticks stay silent.
	if again := r.Tick(2500 * time.Millisecond); again != nil {
		t.Fatal("tick re-fired while a regeneration was in flight")
	}
	// The swap lands: the new bundle covers the drifted budgets and the
	// instant is recorded.
	acts[0].Do(2500 * time.Millisecond)
	swaps := r.Swaps()
	if len(swaps) != 1 {
		t.Fatalf("%d swaps recorded", len(swaps))
	}
	if swaps[0].At != 2500*time.Millisecond || swaps[0].FloorMs != 400 || swaps[0].MissRate != 1 {
		t.Fatalf("swap record %+v", swaps[0])
	}
	if d, err := a.Decide(0, 450*time.Millisecond); err != nil || !d.Hit {
		t.Fatalf("post-swap decision on drifted budget: %+v, %v", d, err)
	}
	// A fresh epoch of drifted misses can trigger a second regeneration.
	for i := 0; i < 12; i++ {
		if _, err := a.Decide(0, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if acts := r.Tick(4 * time.Second); len(acts) != 1 {
		t.Fatal("regen did not re-arm after the swap")
	}
}

func TestRegenSynthesizeFailureKeepsServing(t *testing.T) {
	a, err := adapter.New(regenBundle(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	r, err := NewRegen(RegenConfig{
		Adapter:      a,
		MinDecisions: 5,
		Synthesize: func(int) (*hints.Bundle, error) {
			calls++
			return nil, fmt.Errorf("profiling unavailable")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := a.Decide(0, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if acts := r.Tick(time.Second); acts != nil {
		t.Fatal("failed synthesis still produced a swap action")
	}
	// The next tick retries instead of staying wedged.
	if acts := r.Tick(2 * time.Second); acts != nil {
		t.Fatal("failed synthesis still produced a swap action on retry")
	}
	if calls != 2 {
		t.Fatalf("synthesize called %d times, want a retry per tick", calls)
	}
	if len(r.Swaps()) != 0 {
		t.Fatal("failed regeneration recorded a swap")
	}
}

// TestRegenReadsAdapterThreshold pins that Regen compares the epoch miss
// rate with the watched adapter's own threshold, not the default: an
// adapter built WithMissThreshold(0.2) stays quiet at a 10% epoch miss
// rate, where a default adapter fed the same decisions regenerates, and
// fires above 20%, auditing the threshold it used.
func TestRegenReadsAdapterThreshold(t *testing.T) {
	decide := func(a *adapter.Adapter, hits, misses int) {
		t.Helper()
		for range hits {
			if d, err := a.Decide(0, 2500*time.Millisecond); err != nil || !d.Hit {
				t.Fatalf("decision at 2500ms: %+v, %v", d, err)
			}
		}
		for range misses {
			if d, err := a.Decide(0, 400*time.Millisecond); err != nil || d.Hit {
				t.Fatalf("decision at 400ms: %+v, %v", d, err)
			}
		}
	}
	regen := func(a *adapter.Adapter, tracer obs.Tracer) *Regen {
		t.Helper()
		r, err := NewRegen(RegenConfig{
			Adapter:      a,
			MinDecisions: 10,
			Synthesize:   func(floorMs int) (*hints.Bundle, error) { return regenBundle(t, floorMs), nil },
			Tracer:       tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	def, err := adapter.New(regenBundle(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	decide(def, 90, 10)
	if acts := regen(def, nil).Tick(time.Second); len(acts) != 1 {
		t.Fatalf("default adapter at a 10%% miss rate: %d actions, want a regeneration", len(acts))
	}
	a, err := adapter.New(regenBundle(t, 2000), adapter.WithMissThreshold(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.MissThreshold(); got != 0.2 {
		t.Fatalf("MissThreshold() = %v, want 0.2", got)
	}
	col := &obs.Collector{}
	r := regen(a, col)
	decide(a, 90, 10)
	if acts := r.Tick(time.Second); acts != nil {
		t.Fatalf("10%% epoch miss rate under a 20%% threshold returned %d actions", len(acts))
	}
	decide(a, 0, 20) // 30 misses in 120 decisions: 25%
	if acts := r.Tick(2 * time.Second); len(acts) != 1 {
		t.Fatalf("25%% epoch miss rate under a 20%% threshold returned %d actions, want 1", len(acts))
	}
	evs := col.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KindScaleAudit || !strings.Contains(evs[0].Reason, "over threshold 0.2000") {
		t.Fatalf("audit events %+v, want one naming threshold 0.2000", evs)
	}
}

// TestRegenCountsFailures pins that a failing Synthesize hook is counted
// and audited, and that the next tick retries: a hook that fails twice
// and then succeeds leaves two failures, two audits naming the error,
// and one swap.
func TestRegenCountsFailures(t *testing.T) {
	a, err := adapter.New(regenBundle(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	col := &obs.Collector{}
	r, err := NewRegen(RegenConfig{
		Adapter:      a,
		MinDecisions: 5,
		Tracer:       col,
		Synthesize: func(floorMs int) (*hints.Bundle, error) {
			calls++
			if calls <= 2 {
				return nil, fmt.Errorf("profiling unavailable (attempt %d)", calls)
			}
			return regenBundle(t, floorMs), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range 6 {
		if _, err := a.Decide(0, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var swaps int
	for tick := 1; tick <= 3; tick++ {
		for _, act := range r.Tick(time.Duration(tick) * time.Second) {
			act.Do(time.Duration(tick)*time.Second + act.Delay)
			swaps++
		}
	}
	if r.Failures() != 2 || swaps != 1 || len(r.Swaps()) != 1 {
		t.Fatalf("failures %d, swap actions %d, swaps recorded %d; want 2, 1, 1", r.Failures(), swaps, len(r.Swaps()))
	}
	var failed []string
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindScaleAudit && strings.Contains(ev.Reason, "failed") {
			failed = append(failed, ev.Reason)
		}
	}
	if len(failed) != 2 || !strings.Contains(failed[0], "profiling unavailable (attempt 1)") ||
		!strings.Contains(failed[1], "profiling unavailable (attempt 2)") {
		t.Fatalf("failure audits %q, want two carrying the hook's errors", failed)
	}
}
