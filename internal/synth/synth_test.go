package synth

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"janus/internal/hints"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/profile"
	"janus/internal/workflow"
)

var (
	iaSetOnce sync.Once
	iaSet     *profile.Set
)

// iaProfiles profiles the IA chain once for all tests (600 samples/config
// keeps it fast while staying statistically stable).
func iaProfiles(t testing.TB) *profile.Set {
	t.Helper()
	iaSetOnce.Do(func() {
		coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
		if err != nil {
			t.Fatal(err)
		}
		p, err := profile.NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 11)
		if err != nil {
			t.Fatal(err)
		}
		p.SamplesPerConfig = 600
		set, err := p.ProfileWorkflow(workflow.IntelligentAssistant(), 1)
		if err != nil {
			t.Fatal(err)
		}
		iaSet = set
	})
	if iaSet == nil {
		t.Fatal("profiling failed earlier")
	}
	return iaSet
}

func newSynth(t *testing.T, cfg Config) *Synthesizer {
	t.Helper()
	if cfg.Profiles == nil {
		cfg.Profiles = iaProfiles(t)
	}
	if cfg.BudgetStepMs == 0 {
		cfg.BudgetStepMs = 10 // coarse sweep for test speed; benches use 1ms
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	set := iaProfiles(t)
	if _, err := New(Config{}); err == nil {
		t.Error("nil profiles accepted")
	}
	if _, err := New(Config{Profiles: set, Weight: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New(Config{Profiles: set, BudgetStepMs: -5}); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := New(Config{Profiles: set, Mode: Mode(42)}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := New(Config{Profiles: set, BudgetOverrideMs: [2]int{100, 50}}); err == nil {
		t.Error("inverted budget override accepted")
	}
}

// TestLatencyOverflowRejected: the budget sweep's matrices hold int32
// milliseconds, so New rejects a profile latency outside that range
// rather than narrowing it.
func TestLatencyOverflowRejected(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: every latency fits in int32")
	}
	grid := profile.Grid{Min: 1000, Max: 1100, Step: 100}
	huge := math.MaxInt32
	huge++
	head, err := profile.NewFunctionProfile("head", 1, grid, []int{50, 99}, [][]int{{huge, huge}, {20, 10}})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := profile.NewFunctionProfile("tail", 1, grid, []int{50, 99}, [][]int{{5, 4}, {6, 5}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workflow.NewChain("overflow", time.Second, "head", "tail")
	if err != nil {
		t.Fatal(err)
	}
	set := &profile.Set{Workflow: w, Batch: 1, Profiles: []*profile.FunctionProfile{head, tail}}
	if _, err := New(Config{Profiles: set}); err == nil || !strings.Contains(err.Error(), "overflows int32") {
		t.Fatalf("New = %v, want an int32 overflow error", err)
	}
}

func TestModeString(t *testing.T) {
	if ModeJanus.String() != "janus" || ModeJanusMinus.String() != "janus-" || ModeJanusPlus.String() != "janus+" {
		t.Fatal("mode names changed")
	}
}

func TestGenerateSuffixFeasibilityAndConstraints(t *testing.T) {
	s := newSynth(t, Config{Mode: ModeJanus})
	set := iaProfiles(t)
	raw, err := s.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Hints) == 0 {
		t.Fatal("no hints generated")
	}
	kmax := set.At(0).Grid.Max
	for _, h := range raw.Hints {
		if len(h.PlanMillicores) != 3 {
			t.Fatalf("hint at %dms has plan %v", h.BudgetMs, h.PlanMillicores)
		}
		// Eq. 5: planned execution fits the budget.
		total := set.At(0).LMs(h.HeadPercentile, h.PlanMillicores[0])
		for i := 1; i < 3; i++ {
			total += set.At(i).LMs(99, h.PlanMillicores[i])
		}
		if total > h.BudgetMs {
			t.Fatalf("hint at %dms plans %dms of execution", h.BudgetMs, total)
		}
		// Eq. 6: the head's timeout fits downstream resilience.
		d := set.At(0).TimeoutMs(h.HeadPercentile, h.PlanMillicores[0])
		res := 0
		for i := 1; i < 3; i++ {
			res += set.At(i).LMs(99, h.PlanMillicores[i]) - set.At(i).LMs(99, kmax)
		}
		if d > res {
			t.Fatalf("hint at %dms: timeout %d exceeds resilience %d", h.BudgetMs, d, res)
		}
	}
	// Generous budgets settle at (nearly) minimum allocations; the coarse
	// test sweep can stop one step short of Tmax, so allow one grid step.
	last := raw.Hints[len(raw.Hints)-1]
	total := last.PlanMillicores[0] + last.PlanMillicores[1] + last.PlanMillicores[2]
	if total > 3200 {
		t.Errorf("largest budget plan = %v (total %d), want near the 3000 grid minimum", last.PlanMillicores, total)
	}
}

func TestJanusMinusSticksToP99(t *testing.T) {
	s := newSynth(t, Config{Mode: ModeJanusMinus})
	raw, err := s.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range raw.Hints {
		if h.HeadPercentile != 99 {
			t.Fatalf("Janus- chose percentile %d", h.HeadPercentile)
		}
	}
}

func TestJanusExploresLowerPercentiles(t *testing.T) {
	s := newSynth(t, Config{Mode: ModeJanus})
	raw, err := s.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	explored := false
	for _, h := range raw.Hints {
		if h.HeadPercentile < 99 {
			explored = true
			break
		}
	}
	if !explored {
		t.Fatal("Janus never used a percentile below 99 — exploration is dead")
	}
}

func TestJanusCostNeverAboveJanusMinus(t *testing.T) {
	// Janus searches a superset of Janus-'s space, so per-budget expected
	// cost can only improve.
	sj := newSynth(t, Config{Mode: ModeJanus})
	sm := newSynth(t, Config{Mode: ModeJanusMinus})
	rj, err := sj.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := sm.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	minusByBudget := map[int]float64{}
	for _, h := range rm.Hints {
		minusByBudget[h.BudgetMs] = h.ExpectedCost
	}
	improved := false
	for _, h := range rj.Hints {
		mc, ok := minusByBudget[h.BudgetMs]
		if !ok {
			continue
		}
		if h.ExpectedCost > mc+1e-6 {
			t.Fatalf("budget %dms: Janus cost %.1f above Janus- %.1f", h.BudgetMs, h.ExpectedCost, mc)
		}
		if h.ExpectedCost < mc-1e-6 {
			improved = true
		}
	}
	if !improved {
		t.Fatal("Janus never improved on Janus- anywhere")
	}
}

func TestJanusPlusCostNeverAboveJanus(t *testing.T) {
	sp := newSynth(t, Config{Mode: ModeJanusPlus, BudgetStepMs: 50})
	sj := newSynth(t, Config{Mode: ModeJanus, BudgetStepMs: 50})
	rp, err := sp.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := sj.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	jByBudget := map[int]float64{}
	for _, h := range rj.Hints {
		jByBudget[h.BudgetMs] = h.ExpectedCost
	}
	// Janus+'s objective charges the second function's residual 1% timeout
	// risk even at p2 = 99 — a (1-0.99)*(N-1)*Kmax = 60-millicore wedge
	// Janus's plain downstream term does not carry. Within that wedge the
	// costs must agree; Janus+ must never be meaningfully worse.
	const wedge = 60.0
	for _, h := range rp.Hints {
		jc, ok := jByBudget[h.BudgetMs]
		if !ok {
			continue
		}
		if h.ExpectedCost > jc+wedge+1e-6 {
			t.Fatalf("budget %dms: Janus+ cost %.1f above Janus %.1f beyond the p2=99 wedge", h.BudgetMs, h.ExpectedCost, jc)
		}
	}
}

func TestSingleFunctionSuffixUsesP99MinResource(t *testing.T) {
	s := newSynth(t, Config{Mode: ModeJanus})
	set := iaProfiles(t)
	raw, err := s.GenerateSuffix(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Hints) == 0 {
		t.Fatal("no hints for last stage")
	}
	for _, h := range raw.Hints {
		if h.HeadPercentile != 99 {
			t.Fatalf("single-function hint at %dms explored percentile %d", h.BudgetMs, h.HeadPercentile)
		}
		if set.At(2).LMs(99, h.HeadMillicores) > h.BudgetMs {
			t.Fatalf("single-function hint at %dms does not fit", h.BudgetMs)
		}
		// Minimality: one grid step less must not fit.
		if h.HeadMillicores > 1000 {
			if set.At(2).LMs(99, h.HeadMillicores-100) <= h.BudgetMs {
				t.Fatalf("hint at %dms not minimal: %d would fit", h.BudgetMs, h.HeadMillicores-100)
			}
		}
	}
}

func TestWeightShrinksHeadAndPercentile(t *testing.T) {
	// Table II: higher weight -> smaller head sizes and lower percentiles.
	s1 := newSynth(t, Config{Mode: ModeJanus, Weight: 1})
	s3 := newSynth(t, Config{Mode: ModeJanus, Weight: 3})
	r1, err := s1.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := s3.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	byBudget := map[int]hints.Hint{}
	for _, h := range r1.Hints {
		byBudget[h.BudgetMs] = h
	}
	var sumK1, sumK3, sumP1, sumP3 float64
	n := 0
	for _, h3 := range r3.Hints {
		h1, ok := byBudget[h3.BudgetMs]
		if !ok {
			continue
		}
		sumK1 += float64(h1.HeadMillicores)
		sumK3 += float64(h3.HeadMillicores)
		sumP1 += float64(h1.HeadPercentile)
		sumP3 += float64(h3.HeadPercentile)
		n++
	}
	if n == 0 {
		t.Fatal("no comparable budgets")
	}
	if sumK3/float64(n) >= sumK1/float64(n) {
		t.Errorf("weight 3 mean head size %.1f not below weight 1 %.1f", sumK3/float64(n), sumK1/float64(n))
	}
	if sumP3/float64(n) >= sumP1/float64(n) {
		t.Errorf("weight 3 mean percentile %.1f not below weight 1 %.1f", sumP3/float64(n), sumP1/float64(n))
	}
}

func TestGenerateBundle(t *testing.T) {
	s := newSynth(t, Config{Mode: ModeJanus})
	res, err := s.GenerateBundle()
	if err != nil {
		t.Fatal(err)
	}
	b := res.Bundle
	if b.Workflow != "ia" || b.Stages() != 3 || b.SLOMs != 3000 || b.MaxMillicores != 3000 {
		t.Fatalf("bundle header = %+v", b)
	}
	for i, tab := range b.Tables {
		if tab.Suffix != i || tab.Size() == 0 {
			t.Fatalf("table %d: suffix %d size %d", i, tab.Suffix, tab.Size())
		}
	}
	// Condensing must compress dramatically (Fig 8: >98%).
	for i := range res.RawCounts {
		ratio := hints.CompressionRatio(res.RawCounts[i], res.CondensedCounts[i])
		if ratio < 0.5 {
			t.Errorf("suffix %d compression %.2f suspiciously low (%d -> %d)",
				i, ratio, res.RawCounts[i], res.CondensedCounts[i])
		}
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
	// SLO lookup on the full-workflow table must hit.
	if _, ok := b.Tables[0].Lookup(3 * time.Second); !ok {
		t.Error("SLO budget misses the suffix-0 table")
	}
}

func TestGenerateDeterministicAcrossParallelism(t *testing.T) {
	a := newSynth(t, Config{Mode: ModeJanus})
	b := newSynth(t, Config{Mode: ModeJanus})
	a.workers, b.workers = 1, 8
	ra, err := a.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Hints) != len(rb.Hints) {
		t.Fatalf("hint counts differ: %d vs %d", len(ra.Hints), len(rb.Hints))
	}
	for i := range ra.Hints {
		ha, hb := ra.Hints[i], rb.Hints[i]
		if ha.BudgetMs != hb.BudgetMs || ha.HeadMillicores != hb.HeadMillicores || ha.HeadPercentile != hb.HeadPercentile {
			t.Fatalf("hint %d differs across parallelism: %+v vs %+v", i, ha, hb)
		}
	}
}

func TestBudgetOverride(t *testing.T) {
	s := newSynth(t, Config{Mode: ModeJanus, BudgetOverrideMs: [2]int{2000, 7000}})
	raw, err := s.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	first, last := raw.Hints[0], raw.Hints[len(raw.Hints)-1]
	if first.BudgetMs < 2000 {
		t.Errorf("first budget %d below override", first.BudgetMs)
	}
	if last.BudgetMs > 7000 {
		t.Errorf("last budget %d above override", last.BudgetMs)
	}
}

func TestGenerateSuffixRange(t *testing.T) {
	s := newSynth(t, Config{Mode: ModeJanus})
	if _, err := s.GenerateSuffix(-1); err == nil {
		t.Error("negative suffix accepted")
	}
	if _, err := s.GenerateSuffix(3); err == nil {
		t.Error("out-of-range suffix accepted")
	}
}

func TestHeadSizeTrendsDownWithBudget(t *testing.T) {
	// More slack should never require a *larger* workflow allocation:
	// total planned cores are non-increasing in budget.
	s := newSynth(t, Config{Mode: ModeJanusMinus})
	raw, err := s.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1 << 30
	for _, h := range raw.Hints {
		total := 0
		for _, k := range h.PlanMillicores {
			total += k
		}
		if total > prev {
			t.Fatalf("planned total %d grew with budget at %dms", total, h.BudgetMs)
		}
		prev = total
	}
}

func TestBudgetFloorExtendsEveryConeDownward(t *testing.T) {
	base := newSynth(t, Config{Mode: ModeJanus})
	floored := newSynth(t, Config{Mode: ModeJanus, BudgetFloorMs: 1})
	for suffix := 0; suffix < 3; suffix++ {
		raw, err := base.GenerateSuffix(suffix)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := floored.GenerateSuffix(suffix)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.Hints) < len(raw.Hints) {
			t.Fatalf("suffix %d: floored sweep produced fewer hints (%d < %d)", suffix, len(ext.Hints), len(raw.Hints))
		}
		// The floor can only add coverage below the Eq. 3 minimum; any
		// hint it adds must be feasible, i.e. cheaper budgets demand
		// at-least-as-large head allocations.
		if ext.Hints[0].BudgetMs > raw.Hints[0].BudgetMs {
			t.Fatalf("suffix %d: floored minimum %d above un-floored %d", suffix, ext.Hints[0].BudgetMs, raw.Hints[0].BudgetMs)
		}
		// Budgets within the original range keep their original plans:
		// the floor extends the sweep, it does not re-price it.
		byBudget := map[int]int{}
		for _, h := range ext.Hints {
			byBudget[h.BudgetMs] = h.HeadMillicores
		}
		for _, h := range raw.Hints {
			if got, ok := byBudget[h.BudgetMs]; !ok || got != h.HeadMillicores {
				t.Fatalf("suffix %d: budget %d resized from %d to %d under the floor", suffix, h.BudgetMs, h.HeadMillicores, got)
			}
		}
	}
}

func TestBudgetFloorValidation(t *testing.T) {
	if _, err := New(Config{Profiles: iaProfiles(t), BudgetStepMs: 10, BudgetFloorMs: -1}); err == nil {
		t.Fatal("negative budget floor accepted")
	}
}

func TestBudgetFloorInsideLastStepStillCovered(t *testing.T) {
	// A floor that is not step-aligned with the sweep minimum must still
	// end up covered: the extension rounds its step count up, so the
	// first extended budget lands at or below the floor instead of
	// leaving a sub-step gap that would keep missing after a hot-swap.
	// The override window sits fully inside the feasible region (IA's
	// suffix-0 hints start around 2.8 s at this profile scale), so every
	// extended budget below it can actually yield a hint.
	base := newSynth(t, Config{Mode: ModeJanus, BudgetOverrideMs: [2]int{3000, 3400}})
	floor := 2995 // 5ms below the override minimum, step is 10ms
	floored := newSynth(t, Config{Mode: ModeJanus, BudgetOverrideMs: [2]int{3000, 3400}, BudgetFloorMs: floor})
	raw, err := base.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := floored.GenerateSuffix(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Hints) <= len(raw.Hints) {
		t.Fatalf("floor inside the last step added no coverage (%d vs %d hints)", len(ext.Hints), len(raw.Hints))
	}
	if ext.Hints[0].BudgetMs > floor {
		t.Fatalf("lowest swept budget %d above the observed floor %d", ext.Hints[0].BudgetMs, floor)
	}
}
