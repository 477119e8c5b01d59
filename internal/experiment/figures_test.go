package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestFig1a(t *testing.T) {
	s := quickSuite(t)
	f, err := s.Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	if f.PopularShare < 0.72 || f.PopularShare > 0.92 {
		t.Errorf("popular share %.3f not near the paper's 81.6%%", f.PopularShare)
	}
	// > 60% of invocations have slack over 0.6 -> CDF(0.6) < 0.4.
	var cdfAt06 float64
	for i, x := range f.Grid {
		if x >= 0.599 && x <= 0.601 {
			cdfAt06 = f.All[i].F
		}
	}
	if cdfAt06 >= 0.4 {
		t.Errorf("CDF(slack=0.6) = %.3f, want < 0.4", cdfAt06)
	}
	if !strings.Contains(f.String(), "Fig 1a") {
		t.Error("String() lost its header")
	}
}

func TestFig1b(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	maxRatio := 0.0
	for _, r := range rows {
		if r.P99 <= r.P1 {
			t.Errorf("%s: P99 %v not above P1 %v", r.Function, r.P99, r.P1)
		}
		if r.Ratio > maxRatio {
			maxRatio = r.Ratio
		}
	}
	// Fig 1b: up to ~3.8x.
	if maxRatio < 2.5 || maxRatio > 5.5 {
		t.Errorf("max P99/P1 ratio %.2f out of the paper's ballpark", maxRatio)
	}
	if !strings.Contains(FormatFig1b(rows), "od") {
		t.Error("FormatFig1b lost function names")
	}
}

func TestFig1c(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.Fig1c()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byDim := map[string][]float64{}
	for _, r := range rows {
		if len(r.Normalized) != 6 {
			t.Fatalf("%s has %d points", r.Function, len(r.Normalized))
		}
		if r.Normalized[0] < 0.99 || r.Normalized[0] > 1.01 {
			t.Errorf("%s: n=1 not normalized to 1 (%v)", r.Function, r.Normalized[0])
		}
		for i := 1; i < 6; i++ {
			if r.Normalized[i] < r.Normalized[i-1]-0.03 {
				t.Errorf("%s: slowdown shrank at n=%d", r.Function, i+1)
			}
		}
		byDim[r.Dimension] = r.Normalized
	}
	// Network suffers the most (paper: up to 8.1x), CPU the least.
	if byDim["network"][5] < 7 || byDim["network"][5] > 9.5 {
		t.Errorf("network slowdown at 6 = %.2f, want ~8.1", byDim["network"][5])
	}
	if byDim["cpu"][5] >= byDim["memory"][5] || byDim["memory"][5] >= byDim["io"][5] || byDim["io"][5] >= byDim["network"][5] {
		t.Error("dimension severity ordering broken")
	}
}

func TestFig2(t *testing.T) {
	s := quickSuite(t)
	f, err := s.Fig2(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 50 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	// Late binding must save CPU on average; the paper reports up to 42.2%.
	if f.MeanSavings() <= 0.05 {
		t.Errorf("mean savings %.3f too small", f.MeanSavings())
	}
	if f.MaxSavings() < 0.2 {
		t.Errorf("max savings %.3f, want a pronounced best case", f.MaxSavings())
	}
	// Early binding is never cheaper than the oracle.
	for _, r := range f.Rows {
		if r.EarlyCPU < 0.999 {
			t.Errorf("request %d: early CPU %.3f below optimal", r.RequestID, r.EarlyCPU)
		}
	}
}

func TestFig4AllSystemsMeetSLOs(t *testing.T) {
	s := quickSuite(t)
	panels, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("%d panels", len(panels))
	}
	for _, p := range panels {
		for _, d := range p.Systems {
			if d.P50 > d.P90 || d.P90 > d.P99 || d.P99 > d.P999 || d.P999 > d.Max {
				t.Errorf("%v/%s: percentiles not monotone", p.Panel, d.System)
			}
			// The SLO is a P99 target; allow small sampling noise.
			if d.ViolationRate > 0.03 {
				t.Errorf("%v/%s: violation rate %.3f", p.Panel, d.System, d.ViolationRate)
			}
		}
	}
	if !strings.Contains(FormatFig4(panels), "SLO") {
		t.Error("FormatFig4 lost its header")
	}
}

func TestFig5NormalizedAboveOne(t *testing.T) {
	s := quickSuite(t)
	panels, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		var opt, gs float64
		for _, r := range p.Systems {
			if r.Normalized < 0.999 {
				t.Errorf("%v/%s: normalized %.3f below Optimal", p.Panel, r.System, r.Normalized)
			}
			switch r.System {
			case SysOptimal:
				opt = r.Normalized
			case SysGrandSLAM:
				gs = r.Normalized
			}
		}
		if opt < 0.999 || opt > 1.001 {
			t.Errorf("%v: optimal not normalized to 1", p.Panel)
		}
		// Early binding over-allocates; at higher concurrency the paper
		// reports up to 1.75x.
		if gs < 1.1 {
			t.Errorf("%v: GrandSLAM normalized %.3f suspiciously low", p.Panel, gs)
		}
	}
}

func TestFig5bHigherConcurrencyOverAllocation(t *testing.T) {
	s := quickSuite(t)
	panels, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// Panels 2 and 3 are IA at concurrency 2 and 3: early binding's
	// over-allocation should be pronounced (paper: up to 1.75x).
	for _, p := range panels[2:] {
		for _, r := range p.Systems {
			if r.System == SysGrandSLAM || r.System == SysGrandSLAMP {
				if r.Normalized < 1.2 {
					t.Errorf("conc=%d %s normalized %.3f, want clear over-allocation", p.Panel.Batch, r.System, r.Normalized)
				}
			}
		}
	}
}

func TestFig6JanusPlusCostsMore(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Fig 6b: Janus+ synthesis is far more expensive (paper: up to
		// 107.2x). The quick suite's coarse sweep still shows >= 3x.
		if float64(r.JanusPlusSynth) < 3*float64(r.JanusSynth) {
			t.Errorf("SLO %v: Janus+ synth %v not clearly above Janus %v",
				r.SLO, r.JanusPlusSynth, r.JanusSynth)
		}
		// Fig 6a: consumptions track each other.
		diff := r.JanusPlusMillicores/r.JanusMillicores - 1
		if diff > 0.03 || diff < -0.12 {
			t.Errorf("SLO %v: Janus+ consumption deviates %.1f%%", r.SLO, diff*100)
		}
	}
	// Consumption decreases as the SLO relaxes.
	if rows[len(rows)-1].JanusMillicores >= rows[0].JanusMillicores {
		t.Error("Janus consumption did not fall with looser SLOs")
	}
}

// TestFormatFig6PrintsWhatTheRatioDivides pins Fig 6b's synthesis columns
// at the resolution the ratio is computed from: a sub-millisecond Janus
// median must print as itself, not as 0s beside a finite ratio.
func TestFormatFig6PrintsWhatTheRatioDivides(t *testing.T) {
	out := FormatFig6([]Fig6Row{{
		SLO:                 3 * time.Second,
		JanusMillicores:     2000,
		JanusPlusMillicores: 1950,
		JanusSynth:          350 * time.Microsecond,
		JanusPlusSynth:      45 * time.Millisecond,
	}})
	for _, want := range []string{"350µs", "45ms", "128.6x"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig6 output lacks %q:\n%s", want, out)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	s := quickSuite(t)
	f, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// 7a: timeout decreases with percentile at fixed k.
	for i := range f.Levels {
		if f.TimeoutMs[25][i] < f.TimeoutMs[50][i] || f.TimeoutMs[50][i] < f.TimeoutMs[75][i] {
			t.Errorf("timeout ordering broken at level %d", i)
		}
	}
	// 7b: resilience decreases with k and grows with concurrency.
	last := len(f.Levels) - 1
	for _, c := range []int{1, 2, 3} {
		if f.ResilienceMs[c][0] <= f.ResilienceMs[c][last] {
			t.Errorf("conc %d: resilience did not shrink with cores", c)
		}
		if f.ResilienceMs[c][last] != 0 {
			t.Errorf("conc %d: resilience at Kmax = %d, want 0", c, f.ResilienceMs[c][last])
		}
	}
	if f.ResilienceMs[3][0] <= f.ResilienceMs[1][0] {
		t.Error("resilience did not grow with concurrency")
	}
	if !strings.Contains(f.String(), "Fig 7a") {
		t.Error("String() lost its header")
	}
}

func TestFig8CondensingAndWeightTrend(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*5 {
		t.Fatalf("%d rows", len(rows))
	}
	byPoint := map[string][]Fig8Row{}
	for _, r := range rows {
		if r.Condensed == 0 || r.RawHints == 0 {
			t.Fatalf("%s/b%d w%.1f: empty table", r.Workflow, r.Batch, r.Weight)
		}
		// Fig 8's headline claim is about absolute condensed sizes: IA
		// tables stay under ~147 entries and VA under ~96, regardless of
		// how many raw budgets were swept. (The >= 98% compression ratios
		// only appear at the paper's 1 ms sweep, exercised by the bench.)
		limit := 200
		if r.Workflow == "va" {
			limit = 120
		}
		if r.Condensed > limit {
			t.Errorf("%s/b%d w%.1f: %d condensed hints exceed the paper-scale bound %d",
				r.Workflow, r.Batch, r.Weight, r.Condensed, limit)
		}
		key := r.Workflow + string(rune('0'+r.Batch))
		byPoint[key] = append(byPoint[key], r)
	}
	// Higher weights lead to same-or-smaller condensed tables.
	for key, rs := range byPoint {
		if rs[len(rs)-1].Condensed > rs[0].Condensed {
			t.Errorf("%s: condensed hints grew with weight (%d -> %d)", key, rs[0].Condensed, rs[len(rs)-1].Condensed)
		}
	}
}

func TestFig9Trends(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5+6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Janus never meaningfully loses. At loose SLOs every system sits
		// within a few percent of the 1000-millicore floor: early binding
		// reaches it exactly, while Janus keeps a small mid-chain P99
		// insurance premium (the paper's gains likewise "decrease
		// marginally" as SLOs grow).
		if r.Janus > r.ORION+0.05 {
			t.Errorf("%s SLO %v: janus %.3f above orion %.3f", r.Workflow, r.SLO, r.Janus, r.ORION)
		}
		if r.Janus > r.GrandSLAM+0.05 {
			t.Errorf("%s SLO %v: janus %.3f above grandslam %.3f", r.Workflow, r.SLO, r.Janus, r.GrandSLAM)
		}
	}
	// At each workflow's tightest SLO the gap is strict.
	for _, i := range []int{0, 5} {
		r := rows[i]
		if r.Janus >= r.ORION || r.Janus >= r.GrandSLAM {
			t.Errorf("%s SLO %v (tightest): janus %.3f should strictly beat orion %.3f / grandslam %.3f",
				r.Workflow, r.SLO, r.Janus, r.ORION, r.GrandSLAM)
		}
	}
	// Janus approaches Optimal as the SLO relaxes (paper: gains shrink
	// because allocations bottom out at 1000 millicores per function).
	var iaRows []Fig9Row
	for _, r := range rows {
		if r.Workflow == "ia" {
			iaRows = append(iaRows, r)
		}
	}
	if iaRows[len(iaRows)-1].Janus > iaRows[0].Janus {
		t.Error("IA: Janus normalized consumption did not approach Optimal with looser SLOs")
	}
}

func TestTable1MatchesPaperShape(t *testing.T) {
	s := quickSuite(t)
	tab, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range []string{"ia", "va"} {
		row := tab.Reduction[wf]
		// Janus saves meaningfully against every real baseline.
		for _, sys := range []string{SysORION, SysGrandSLAMP, SysGrandSLAM, SysJanusMinus} {
			if row[sys] <= 0 {
				t.Errorf("%s: reduction vs %s = %.1f%%, want positive", wf, sys, row[sys])
			}
		}
		// Ordering within the row: GrandSLAM+ >= ORION (the paper's
		// strongest baseline is ORION), Janus- smallest.
		if row[SysORION] >= row[SysGrandSLAMP] {
			t.Errorf("%s: ORION reduction %.1f should be below GrandSLAM+ %.1f", wf, row[SysORION], row[SysGrandSLAMP])
		}
		if row[SysJanusMinus] >= row[SysORION] {
			t.Errorf("%s: Janus- reduction %.1f should be below ORION %.1f", wf, row[SysJanusMinus], row[SysORION])
		}
		// Janus+ is within a modest band of Janus (paper: -0.2 to 0; our
		// models give the wider exploration more room).
		if row[SysJanusPlus] > 4 || row[SysJanusPlus] < -16 {
			t.Errorf("%s: Janus+ delta %.1f%% too large", wf, row[SysJanusPlus])
		}
	}
	if !strings.Contains(tab.String(), "Table I") {
		t.Error("String() lost its header")
	}
}

func TestTable2WeightImpact(t *testing.T) {
	s := quickSuite(t)
	tab, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Higher weight -> smaller head allocation and lower percentile.
	if tab.MeanMillicores[3] >= tab.MeanMillicores[1] {
		t.Errorf("weight 3 head %.1f mc not below weight 1 %.1f mc", tab.MeanMillicores[3], tab.MeanMillicores[1])
	}
	if tab.MeanPercentile[3] >= tab.MeanPercentile[1] {
		t.Errorf("weight 3 percentile %.1f not below weight 1 %.1f", tab.MeanPercentile[3], tab.MeanPercentile[1])
	}
	if !strings.Contains(tab.String(), "Table II") {
		t.Error("String() lost its header")
	}
}

func TestOverheadUnderPaperBound(t *testing.T) {
	s := quickSuite(t)
	o, err := s.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports < 3 ms per online adaptation; table lookups are
	// microseconds here. Allow generous CI noise.
	if o.MeanDecision > time.Millisecond {
		t.Errorf("mean decision %v, want well under the paper's 3ms", o.MeanDecision)
	}
	if o.BundleBytes <= 0 || o.TotalRanges <= 0 {
		t.Error("bundle metrics missing")
	}
	if !strings.Contains(o.String(), "overhead") {
		t.Error("String() lost its header")
	}
}
