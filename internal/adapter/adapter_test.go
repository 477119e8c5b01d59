package adapter

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"janus/internal/hints"
)

func bundle(t *testing.T) *hints.Bundle {
	t.Helper()
	t0, err := hints.Condense(&hints.RawTable{Suffix: 0, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 2000, HeadMillicores: 3000, HeadPercentile: 99},
		{BudgetMs: 2001, HeadMillicores: 2000, HeadPercentile: 90},
		{BudgetMs: 2002, HeadMillicores: 2000, HeadPercentile: 85},
		{BudgetMs: 2003, HeadMillicores: 1000, HeadPercentile: 80},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := hints.Condense(&hints.RawTable{Suffix: 1, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 1000, HeadMillicores: 1500, HeadPercentile: 99},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b := &hints.Bundle{
		Workflow: "w", Batch: 1, Weight: 1, SLOMs: 3000, MaxMillicores: 3000,
		Tables: []*hints.Table{t0, t1},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil bundle accepted")
	}
	b := bundle(t)
	if _, err := New(b, WithMissThreshold(0)); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := New(b, WithMissThreshold(1)); err == nil {
		t.Error("threshold 1 accepted")
	}
	bad := bundle(t)
	bad.Workflow = ""
	if _, err := New(bad); err == nil {
		t.Error("invalid bundle accepted")
	}
}

func TestDecideHitAndMiss(t *testing.T) {
	a, err := New(bundle(t))
	if err != nil {
		t.Fatal(err)
	}
	// Hit: exact range.
	d, err := a.Decide(0, 2001*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.Millicores != 2000 || d.Percentile != 85 {
		t.Fatalf("Decide = %+v", d)
	}
	// Above coverage: cheapest plan.
	d, err = a.Decide(0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.Millicores != 1000 {
		t.Fatalf("above-coverage Decide = %+v", d)
	}
	// Below coverage: escalate to the ceiling.
	d, err = a.Decide(0, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.Millicores != 3000 || d.Percentile != 99 {
		t.Fatalf("miss Decide = %+v", d)
	}
	hits, misses, rate := a.Stats()
	if hits != 2 || misses != 1 || rate != 1.0/3 {
		t.Fatalf("stats = %d, %d, %v", hits, misses, rate)
	}
}

func TestDecideSuffixRange(t *testing.T) {
	a, err := New(bundle(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decide(-1, time.Second); err == nil {
		t.Error("negative suffix accepted")
	}
	if _, err := a.Decide(2, time.Second); err == nil {
		t.Error("out-of-range suffix accepted")
	}
}

// decideN makes n decisions of group 0 at the remaining budget.
func decideN(t *testing.T, a *Adapter, n int, remaining time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := a.Decide(0, remaining); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegenerationCallbackFiresOnceAboveThreshold(t *testing.T) {
	fired := make(chan float64, 10)
	a, err := New(bundle(t),
		WithMissThreshold(0.1),
		WithRegenerateCallback(func(rate float64) { fired <- rate }))
	if err != nil {
		t.Fatal(err)
	}
	// 90 hits then misses: the rate reaches 10% at the 100th decision and
	// crosses it at the 101st.
	decideN(t, a, 90, 3*time.Second)
	decideN(t, a, 15, time.Millisecond)
	select {
	case rate := <-fired:
		if rate <= 0.1 {
			t.Fatalf("callback fired at rate %v", rate)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("callback never fired")
	}
	// No second notification without Replace.
	decideN(t, a, 5, time.Millisecond)
	select {
	case <-fired:
		t.Fatal("callback fired twice")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCallbackRespectsMinDecisions(t *testing.T) {
	fired := make(chan float64, 1)
	a, err := New(bundle(t), WithRegenerateCallback(func(rate float64) { fired <- rate }))
	if err != nil {
		t.Fatal(err)
	}
	// Early misses (100% rate) must not trigger with < 100 decisions.
	decideN(t, a, 99, time.Millisecond)
	select {
	case <-fired:
		t.Fatal("callback fired before 100 decisions")
	case <-time.After(50 * time.Millisecond):
	}
	decideN(t, a, 1, time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("callback never fired at the 100th decision")
	}
}

func TestReplaceSwapsBundleAndRearms(t *testing.T) {
	fired := make(chan float64, 10)
	a, err := New(bundle(t),
		WithMissThreshold(0.1),
		WithRegenerateCallback(func(rate float64) { fired <- rate }))
	if err != nil {
		t.Fatal(err)
	}
	decideN(t, a, 100, time.Millisecond) // misses -> notify
	<-fired
	if err := a.Replace(bundle(t)); err != nil {
		t.Fatal(err)
	}
	decideN(t, a, 100, time.Millisecond) // misses again -> notify again
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("callback not re-armed after Replace")
	}
	if err := a.Replace(nil); err == nil {
		t.Fatal("Replace(nil) accepted")
	}
}

// TestReplaceDoesNotRefireFromPreSwapMisses is the regression test for the
// spurious-regeneration bug: Replace used to re-arm the notification while
// keeping the cumulative counters that drove the trigger, so the very
// first decision after a bundle swap — even a hit — re-fired onRegenerate
// from pre-swap misses, condemning the freshly regenerated bundle before
// it served a single budget. The trigger must watch a per-bundle-epoch
// window: post-swap hits keep it quiet, and only a fresh post-swap miss
// storm may re-fire it.
func TestReplaceDoesNotRefireFromPreSwapMisses(t *testing.T) {
	fired := make(chan float64, 10)
	a, err := New(bundle(t),
		WithMissThreshold(0.1),
		WithRegenerateCallback(func(rate float64) { fired <- rate }))
	if err != nil {
		t.Fatal(err)
	}
	// Miss storm against the first bundle: fires once.
	decideN(t, a, 100, time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("callback never fired for the pre-swap miss storm")
	}
	// The regeneration completes: a fresh bundle swaps in. Cumulative
	// stats keep the history; the trigger window resets.
	if err := a.Replace(bundle(t)); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := a.Stats()
	if misses != 100 {
		t.Fatalf("Stats after Replace = %d hits / %d misses, want cumulative 0/100", hits, misses)
	}
	if eh, em, _ := a.EpochStats(); eh != 0 || em != 0 {
		t.Fatalf("EpochStats after Replace = %d/%d, want a fresh window", eh, em)
	}
	// Post-swap traffic hits the new bundle. The cumulative miss rate is
	// still far above the threshold (100 misses vs at most 100 hits) —
	// the buggy adapter re-fires on the first decision here.
	decideN(t, a, 100, 3*time.Second)
	select {
	case rate := <-fired:
		t.Fatalf("callback re-fired from pre-swap misses (rate %v) despite a healthy new bundle", rate)
	case <-time.After(50 * time.Millisecond):
	}
	// A genuine post-swap miss storm must still be able to re-fire: 20
	// misses after 100 hits read 16.7%.
	decideN(t, a, 20, time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("callback never re-fired for a post-swap miss storm")
	}
	hits, misses, _ = a.Stats()
	if hits != 100 || misses != 120 {
		t.Fatalf("cumulative Stats = %d hits / %d misses, want 100/120", hits, misses)
	}
}

// TestStaleEpochDecisionsExcludedFromWindow covers the concurrent
// deploy-while-deciding corner of the same bug: a Decide that loaded the
// old bundle can have Replace land between its lookup and its recording.
// Its outcome carries the old epoch and must not enter the new bundle's
// regeneration window (it still counts in the cumulative Stats).
func TestStaleEpochDecisionsExcludedFromWindow(t *testing.T) {
	fired := make(chan float64, 10)
	a, err := New(bundle(t),
		WithMissThreshold(0.1),
		WithRegenerateCallback(func(rate float64) { fired <- rate }))
	if err != nil {
		t.Fatal(err)
	}
	stale := a.bundle.Load() // what an in-flight Decide snapshotted
	if err := a.Replace(bundle(t)); err != nil {
		t.Fatal(err)
	}
	// The in-flight decisions complete after the swap: all misses, all
	// attributed to the pre-swap bundle.
	for i := 0; i < 100; i++ {
		a.record(false, stale.epoch, 100*time.Millisecond)
	}
	if eh, em, _ := a.EpochStats(); eh != 0 || em != 0 {
		t.Fatalf("stale-epoch decisions leaked into the new window: %d/%d", eh, em)
	}
	if _, misses, _ := a.Stats(); misses != 100 {
		t.Fatalf("stale-epoch decisions lost from cumulative stats: %d misses", misses)
	}
	select {
	case rate := <-fired:
		t.Fatalf("stale-epoch misses re-fired the callback (rate %v)", rate)
	case <-time.After(50 * time.Millisecond):
	}
	// Fresh misses against the new bundle still trigger normally.
	decideN(t, a, 100, time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("current-epoch miss storm never fired")
	}
}

func TestConcurrentDecides(t *testing.T) {
	a, err := New(bundle(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if _, err := a.Decide(0, 2500*time.Millisecond); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, _ := a.Stats()
	if hits+misses != 8000 {
		t.Fatalf("decision count = %d, want 8000", hits+misses)
	}
}

func TestAllocatorIntegration(t *testing.T) {
	a, err := New(bundle(t))
	if err != nil {
		t.Fatal(err)
	}
	al := &Allocator{Adapter: a, System: "janus"}
	if al.Name() != "janus" {
		t.Fatal("allocator name")
	}
	mc, hit := al.Allocate(nil, 0, 2003*time.Millisecond)
	if mc != 1000 || !hit {
		t.Fatalf("Allocate = %d, %v", mc, hit)
	}
	mc, hit = al.Allocate(nil, 1, time.Millisecond)
	if mc != 3000 || hit {
		t.Fatalf("miss Allocate = %d, %v", mc, hit)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range stage did not panic")
		}
	}()
	al.Allocate(nil, 9, time.Second)
}

// TestReplaceWhileDeciding is the regression test for the bundle-swap data
// race: Decide and Bundle must not read a.bundle unsynchronized while
// Replace swaps it — the situation whenever janusd redeploys a regenerated
// bundle mid-traffic.
func TestReplaceWhileDeciding(t *testing.T) {
	a, err := New(bundle(t))
	if err != nil {
		t.Fatal(err)
	}
	// Two pre-built bundles swapped in a tight loop: the redeploy pressure
	// janusd's regeneration applies, condensed in time so the race window
	// (an unsynchronized bundle read between two of a reader's lock
	// acquisitions) is hit reliably.
	replacements := [2]*hints.Bundle{bundle(t), bundle(t)}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := a.Decide(0, 2500*time.Millisecond); err != nil {
					t.Error(err)
					return
				}
				if a.Bundle() == nil {
					t.Error("nil bundle observed")
					return
				}
			}
		}()
	}
	for i := 0; i < 300000; i++ {
		if err := a.Replace(replacements[i%2]); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestEpochBudgetRangeTracksAndResets(t *testing.T) {
	a, err := New(bundle(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.EpochBudgetRange(); ok {
		t.Fatal("budget range reported before any decision")
	}
	budgets := []time.Duration{2500 * time.Millisecond, 800 * time.Millisecond, 4 * time.Second, -50 * time.Millisecond}
	for _, b := range budgets {
		if _, err := a.Decide(0, b); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi, ok := a.EpochBudgetRange()
	if !ok || lo != -50*time.Millisecond || hi != 4*time.Second {
		t.Fatalf("EpochBudgetRange = [%v, %v] ok=%t, want [-50ms, 4s]", lo, hi, ok)
	}
	// Replace opens a fresh observation window: the drifted range the
	// previous bundle saw must not leak into the new bundle's.
	if err := a.Replace(bundle(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.EpochBudgetRange(); ok {
		t.Fatal("budget range survived a bundle swap")
	}
	if _, err := a.Decide(0, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	lo, hi, ok = a.EpochBudgetRange()
	if !ok || lo != 3*time.Second || hi != 3*time.Second {
		t.Fatalf("post-swap EpochBudgetRange = [%v, %v] ok=%t", lo, hi, ok)
	}
}

// TestMemoContractMatchesDecide pins the MemoizableAllocator contract the
// platform's memo relies on: AllocEpoch tracks Replace exactly, and
// RecordCached mutates every statistic — lifetime stats, the epoch
// window, the observed budget range, and the regeneration trigger — the
// way an equivalent Decide would.
func TestMemoContractMatchesDecide(t *testing.T) {
	build := func() *Allocator {
		a, err := New(bundle(t), WithRegenerateCallback(func(float64) {}))
		if err != nil {
			t.Fatal(err)
		}
		return &Allocator{Adapter: a, System: "janus"}
	}
	decided, cached := build(), build()
	if decided.AllocEpoch() != 0 || cached.AllocEpoch() != 0 {
		t.Fatal("fresh adapters must start at epoch 0")
	}
	budgets := []time.Duration{
		2003 * time.Millisecond, 2003*time.Millisecond + 400*time.Microsecond,
		time.Millisecond, 500 * time.Millisecond, -20 * time.Millisecond,
	}
	// Twenty rounds make the 100 decisions the trigger waits for.
	for range minDecisions / len(budgets) {
		for _, b := range budgets {
			// The cached twin replays every one of decided's outcomes
			// through RecordCached alone; its statistics must land exactly
			// where decided's Decide-driven bookkeeping does.
			_, hit := decided.Allocate(nil, 0, b)
			cached.RecordCached(0, b, cached.AllocEpoch(), hit)
		}
	}
	if !decided.notified || !cached.notified {
		t.Fatalf("trigger diverged or never fired: decide %t, cached %t", decided.notified, cached.notified)
	}
	dh, dm, dr := decided.Stats()
	ch, cm, cr := cached.Stats()
	if dh != ch || dm != cm || dr != cr {
		t.Fatalf("lifetime stats diverged: decide (%d, %d, %v), cached (%d, %d, %v)", dh, dm, dr, ch, cm, cr)
	}
	dh, dm, _ = decided.EpochStats()
	ch, cm, _ = cached.EpochStats()
	if dh != ch || dm != cm {
		t.Fatalf("epoch stats diverged: decide (%d, %d), cached (%d, %d)", dh, dm, ch, cm)
	}
	dlo, dhi, dok := decided.EpochBudgetRange()
	clo, chi, cok := cached.EpochBudgetRange()
	if dlo != clo || dhi != chi || dok != cok {
		t.Fatalf("budget range diverged: decide (%v, %v, %v), cached (%v, %v, %v)", dlo, dhi, dok, clo, chi, cok)
	}
	// Replace advances the epoch the memo keys on, and a stale-epoch
	// RecordCached must stay out of the new epoch window, like a stale
	// in-flight Decide.
	stale := cached.AllocEpoch()
	if err := cached.Replace(bundle(t)); err != nil {
		t.Fatal(err)
	}
	if cached.AllocEpoch() != stale+1 {
		t.Fatalf("AllocEpoch = %d after Replace, want %d", cached.AllocEpoch(), stale+1)
	}
	cached.RecordCached(0, time.Second, stale, true)
	if eh, em, _ := cached.EpochStats(); eh != 0 || em != 0 {
		t.Fatalf("stale RecordCached leaked into new epoch window: (%d, %d)", eh, em)
	}
	if _, _, seen := cached.EpochBudgetRange(); seen {
		t.Fatal("stale RecordCached widened the new epoch's budget range")
	}
}
