package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"janus/internal/platform"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// Panel identifies one workload point of the evaluation (Fig 4/5).
type Panel struct {
	Workflow string
	Batch    int
	SLO      time.Duration
}

// panels returns the paper's four evaluation panels: IA and VA at
// concurrency 1 with their default SLOs, and IA at concurrency 2 and 3
// with SLOs relaxed to 4 s and 5 s to keep early binding feasible (§V-B).
func panels() []Panel {
	return []Panel{
		{Workflow: "ia", Batch: 1, SLO: 3 * time.Second},
		{Workflow: "va", Batch: 1, SLO: 1500 * time.Millisecond},
		{Workflow: "ia", Batch: 2, SLO: 4 * time.Second},
		{Workflow: "ia", Batch: 3, SLO: 5 * time.Second},
	}
}

// prewarmEvaluation fills the run cache for the full §V serving grid
// concurrently; the per-panel summarize loops then hit only cached runs.
// Safe to call repeatedly — cached points cost a map lookup.
func (s *Suite) prewarmEvaluation() error {
	points, err := EvaluationPoints()
	if err != nil {
		return err
	}
	_, err = s.RunPoints(points)
	return err
}

func panelWorkflow(p Panel) (*workflow.Workflow, error) {
	var w *workflow.Workflow
	switch p.Workflow {
	case "ia":
		w = workflow.IntelligentAssistant()
	case "va":
		w = workflow.VideoAnalyze()
	default:
		return nil, fmt.Errorf("experiment: unknown workflow %q", p.Workflow)
	}
	return w.WithSLO(p.SLO)
}

// Fig4Dist is one system's end-to-end latency distribution in a panel.
type Fig4Dist struct {
	System        string
	P50           time.Duration
	P90           time.Duration
	P99           time.Duration
	P999          time.Duration
	Max           time.Duration
	ViolationRate float64
}

// Fig4Panel is one workload point's latency distribution comparison.
type Fig4Panel struct {
	Panel   Panel
	Systems []Fig4Dist
}

// Fig4 reproduces the end-to-end latency distributions of all systems over
// the four panels, against the SLO lines. All (panel, system) points fan
// out over the suite's worker pool before the panels are summarized.
func (s *Suite) Fig4() ([]Fig4Panel, error) {
	if err := s.prewarmEvaluation(); err != nil {
		return nil, err
	}
	var out []Fig4Panel
	for _, p := range panels() {
		w, err := panelWorkflow(p)
		if err != nil {
			return nil, err
		}
		runs, err := s.RunPoint(w, p.Batch, AllSystems())
		if err != nil {
			return nil, err
		}
		fp := Fig4Panel{Panel: p}
		for _, sys := range AllSystems() {
			r := runs[sys]
			e2e := platform.E2ESample(r.Traces)
			fp.Systems = append(fp.Systems, Fig4Dist{
				System:        sys,
				P50:           e2e.PercentileDuration(50),
				P90:           e2e.PercentileDuration(90),
				P99:           e2e.PercentileDuration(99),
				P999:          e2e.PercentileDuration(99.9),
				Max:           time.Duration(e2e.Max() * float64(time.Millisecond)),
				ViolationRate: r.ViolationRate,
			})
		}
		out = append(out, fp)
	}
	return out, nil
}

// FormatFig4 renders the panels.
func FormatFig4(panels []Fig4Panel) string {
	var b strings.Builder
	b.WriteString("Fig 4: end-to-end latency distribution (tail percentiles vs SLO)\n")
	for _, p := range panels {
		fmt.Fprintf(&b, "\n%s conc=%d SLO=%v\n", strings.ToUpper(p.Panel.Workflow), p.Panel.Batch, p.Panel.SLO)
		fmt.Fprintf(&b, "%-11s %8s %8s %8s %8s %8s %10s\n", "system", "P50", "P90", "P99", "P99.9", "max", "viol.rate")
		for _, d := range p.Systems {
			fmt.Fprintf(&b, "%-11s %8d %8d %8d %8d %8d %10.4f\n",
				d.System, d.P50.Milliseconds(), d.P90.Milliseconds(), d.P99.Milliseconds(),
				d.P999.Milliseconds(), d.Max.Milliseconds(), d.ViolationRate)
		}
	}
	return b.String()
}

// Fig5Row is one system's resource consumption in a panel.
type Fig5Row struct {
	System     string
	Millicores float64
	// Normalized is consumption divided by Optimal's (Fig 5b's y axis).
	Normalized float64
}

// Fig5Panel is one workload point's consumption comparison.
type Fig5Panel struct {
	Panel   Panel
	Systems []Fig5Row
}

// Fig5 reproduces resource consumption across the four panels: Fig 5a is
// the concurrency-1 panels in absolute millicores, Fig 5b the higher
// concurrency panels normalized by Optimal. All (panel, system) points fan
// out over the suite's worker pool before the panels are summarized.
func (s *Suite) Fig5() ([]Fig5Panel, error) {
	if err := s.prewarmEvaluation(); err != nil {
		return nil, err
	}
	var out []Fig5Panel
	for _, p := range panels() {
		w, err := panelWorkflow(p)
		if err != nil {
			return nil, err
		}
		runs, err := s.RunPoint(w, p.Batch, AllSystems())
		if err != nil {
			return nil, err
		}
		opt := runs[SysOptimal].MeanMillicores
		fp := Fig5Panel{Panel: p}
		for _, sys := range AllSystems() {
			fp.Systems = append(fp.Systems, Fig5Row{
				System:     sys,
				Millicores: runs[sys].MeanMillicores,
				Normalized: runs[sys].MeanMillicores / opt,
			})
		}
		out = append(out, fp)
	}
	return out, nil
}

// FormatFig5 renders the panels.
func FormatFig5(panels []Fig5Panel) string {
	var b strings.Builder
	b.WriteString("Fig 5: resource consumption (CPU millicores per request; normalized by Optimal)\n")
	for _, p := range panels {
		fmt.Fprintf(&b, "\n%s conc=%d SLO=%v\n", strings.ToUpper(p.Panel.Workflow), p.Panel.Batch, p.Panel.SLO)
		fmt.Fprintf(&b, "%-11s %12s %12s\n", "system", "millicores", "normalized")
		for _, r := range p.Systems {
			fmt.Fprintf(&b, "%-11s %12.1f %12.3f\n", r.System, r.Millicores, r.Normalized)
		}
	}
	return b.String()
}

// Fig6Row is one SLO point of the moderate-percentile-exploration study.
type Fig6Row struct {
	SLO time.Duration
	// JanusMillicores / JanusPlusMillicores are served consumptions
	// (Fig 6a's "workflow sizes").
	JanusMillicores     float64
	JanusPlusMillicores float64
	// JanusSynth / JanusPlusSynth are hint-synthesis wall times (Fig 6b),
	// each the median of repeated runs (medianSynthesis).
	JanusSynth     time.Duration
	JanusPlusSynth time.Duration
}

// Fig6 compares Janus and Janus+ over IA with SLOs 3-7 s: resource
// consumption (6a) and hint-synthesis time cost (6b). Synthesis sweeps the
// budget range up to each SLO, which is why cost grows mildly with the SLO
// while Janus+'s two-dimensional percentile exploration costs orders of
// magnitude more. The result is computed once per suite: at paper scale
// the Janus+ sweeps are by far the suite's most expensive computation,
// and both Fig 6a and Fig 6b consume it.
func (s *Suite) Fig6() ([]Fig6Row, error) {
	return memo(s, "fig6", s.fig6)
}

func (s *Suite) fig6() ([]Fig6Row, error) {
	var out []Fig6Row
	base := workflow.IntelligentAssistant()
	set, err := s.Profiles(base, 1)
	if err != nil {
		return nil, err
	}
	// Fan the serving points of the whole sweep out first; the loop below
	// consumes them by position while timing synthesis sequentially (wall
	// times are the figure's subject and must not contend with serving).
	var slos []time.Duration
	for slo := 3 * time.Second; slo <= 7*time.Second; slo += time.Second {
		slos = append(slos, slo)
	}
	var points []Point
	for _, slo := range slos {
		w, err := base.WithSLO(slo)
		if err != nil {
			return nil, err
		}
		for _, sys := range []string{SysJanus, SysJanusPlus} {
			points = append(points, Point{Workflow: w, Batch: 1, System: sys})
		}
	}
	runs, err := s.RunPoints(points)
	if err != nil {
		return nil, err
	}
	for i, slo := range slos {
		row := Fig6Row{
			SLO:                 slo,
			JanusMillicores:     runs[2*i].MeanMillicores,
			JanusPlusMillicores: runs[2*i+1].MeanMillicores,
		}
		// Synthesis cost at this SLO: sweep [Tmin, SLO].
		tmin, _ := set.BudgetRangeMs(0)
		for _, mode := range []synth.Mode{synth.ModeJanus, synth.ModeJanusPlus} {
			sy, err := synth.New(synth.Config{
				Profiles:         set,
				Mode:             mode,
				BudgetStepMs:     s.cfg.BudgetStepMs,
				BudgetOverrideMs: [2]int{tmin, int(slo / time.Millisecond)},
			})
			if err != nil {
				return nil, err
			}
			elapsed, err := medianSynthesis(sy)
			if err != nil {
				return nil, err
			}
			if mode == synth.ModeJanus {
				row.JanusSynth = elapsed
			} else {
				row.JanusPlusSynth = elapsed
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// fig6MinTiming is how long Fig 6b times each synthesis for. A quick
// suite's Janus synthesis takes a few milliseconds, so one wall-clock
// sample of it is mostly scheduler noise, and the ratio column divides by
// it.
const fig6MinTiming = 100 * time.Millisecond

// medianSynthesis runs sy.GenerateBundle until the runs add up to at
// least fig6MinTiming, and returns the median run. The first run always
// happens, so a synthesis that takes longer than fig6MinTiming (a
// paper-scale Janus+ sweep) runs exactly once.
func medianSynthesis(sy *synth.Synthesizer) (time.Duration, error) {
	var runs []time.Duration
	var total time.Duration
	for total < fig6MinTiming {
		res, err := sy.GenerateBundle()
		if err != nil {
			return 0, err
		}
		runs = append(runs, res.Elapsed)
		total += res.Elapsed
	}
	slices.Sort(runs)
	return runs[len(runs)/2], nil
}

// FormatFig6 renders the rows.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig 6: moderate percentile exploration — Janus vs Janus+ (IA)\n")
	fmt.Fprintf(&b, "%8s %14s %14s %14s %14s %8s\n", "SLO", "janus mc", "janus+ mc", "janus synth", "janus+ synth", "ratio")
	for _, r := range rows {
		ratio := float64(r.JanusPlusSynth) / float64(r.JanusSynth)
		fmt.Fprintf(&b, "%8v %14.1f %14.1f %14v %14v %7.1fx\n",
			r.SLO, r.JanusMillicores, r.JanusPlusMillicores,
			r.JanusSynth.Round(time.Microsecond), r.JanusPlusSynth.Round(time.Microsecond), ratio)
	}
	return b.String()
}

// Fig7 reports the timeout and resilience metrics of the TS function.
type Fig7 struct {
	Levels []int
	// TimeoutMs[p] is D(p, k) over Levels for percentiles 25/50/75.
	TimeoutMs map[int][]int
	// ResilienceMs[c] is R(99, k) over Levels for concurrency 1/2/3.
	ResilienceMs map[int][]int
}

// Fig7 reproduces the §V-D study on TS: timeout shrinking with percentile
// and allocation (7a), resilience shrinking with allocation and growing
// with concurrency (7b).
func (s *Suite) Fig7() (*Fig7, error) {
	w := workflow.IntelligentAssistant()
	out := &Fig7{TimeoutMs: make(map[int][]int), ResilienceMs: make(map[int][]int)}
	set1, err := s.Profiles(w, 1)
	if err != nil {
		return nil, err
	}
	ts := set1.At(2)
	out.Levels = ts.Grid.Levels()
	for _, p := range []int{25, 50, 75} {
		row := make([]int, 0, len(out.Levels))
		for _, k := range out.Levels {
			row = append(row, ts.TimeoutMs(p, k))
		}
		out.TimeoutMs[p] = row
	}
	for _, c := range []int{1, 2, 3} {
		set, err := s.Profiles(w, c)
		if err != nil {
			return nil, err
		}
		tsC := set.At(2)
		row := make([]int, 0, len(out.Levels))
		for _, k := range out.Levels {
			row = append(row, tsC.ResilienceMs(99, k))
		}
		out.ResilienceMs[c] = row
	}
	return out, nil
}

// String renders both sub-figures.
func (f *Fig7) String() string {
	var b strings.Builder
	b.WriteString("Fig 7a: timeout D(p, k) of TS (ms)\n")
	fmt.Fprintf(&b, "%6s %8s %8s %8s\n", "mc", "p=25", "p=50", "p=75")
	for i, k := range f.Levels {
		fmt.Fprintf(&b, "%6d %8d %8d %8d\n", k, f.TimeoutMs[25][i], f.TimeoutMs[50][i], f.TimeoutMs[75][i])
	}
	b.WriteString("\nFig 7b: resilience R(99, k) of TS (ms)\n")
	fmt.Fprintf(&b, "%6s %8s %8s %8s\n", "mc", "conc=1", "conc=2", "conc=3")
	for i, k := range f.Levels {
		fmt.Fprintf(&b, "%6d %8d %8d %8d\n", k, f.ResilienceMs[1][i], f.ResilienceMs[2][i], f.ResilienceMs[3][i])
	}
	return b.String()
}

// Fig9Row is one SLO point of the SLO sweep.
type Fig9Row struct {
	Workflow string
	SLO      time.Duration
	// Normalized consumption (by Optimal) per system.
	ORION     float64
	GrandSLAM float64
	Janus     float64
}

// Fig9 sweeps SLOs (IA 3-7 s, VA 1.5-2.0 s) and reports consumption
// normalized by Optimal for ORION, GrandSLAM, and Janus.
func (s *Suite) Fig9() ([]Fig9Row, error) {
	systems := []string{SysOptimal, SysORION, SysGrandSLAM, SysJanus}
	// One enumeration builds the point grid for both sweeps; the fanned-out
	// results come back in input order and are consumed by position, so the
	// grid and the rows cannot drift apart.
	type sweep struct {
		base *workflow.Workflow
		slos []time.Duration
	}
	var iaSLOs, vaSLOs []time.Duration
	for slo := 3 * time.Second; slo <= 7*time.Second; slo += time.Second {
		iaSLOs = append(iaSLOs, slo)
	}
	for slo := 1500 * time.Millisecond; slo <= 2000*time.Millisecond; slo += 100 * time.Millisecond {
		vaSLOs = append(vaSLOs, slo)
	}
	sweeps := []sweep{
		{workflow.IntelligentAssistant(), iaSLOs},
		{workflow.VideoAnalyze(), vaSLOs},
	}
	var points []Point
	for _, sw := range sweeps {
		for _, slo := range sw.slos {
			w, err := sw.base.WithSLO(slo)
			if err != nil {
				return nil, err
			}
			for _, sys := range systems {
				points = append(points, Point{Workflow: w, Batch: 1, System: sys})
			}
		}
	}
	runs, err := s.RunPoints(points)
	if err != nil {
		return nil, err
	}
	var out []Fig9Row
	next := 0
	for _, sw := range sweeps {
		for _, slo := range sw.slos {
			bySys := make(map[string]*SystemRun, len(systems))
			for _, sys := range systems {
				bySys[sys] = runs[next]
				next++
			}
			opt := bySys[SysOptimal].MeanMillicores
			out = append(out, Fig9Row{
				Workflow:  sw.base.Name(),
				SLO:       slo,
				ORION:     bySys[SysORION].MeanMillicores / opt,
				GrandSLAM: bySys[SysGrandSLAM].MeanMillicores / opt,
				Janus:     bySys[SysJanus].MeanMillicores / opt,
			})
		}
	}
	return out, nil
}

// FormatFig9 renders the sweep.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Fig 9: normalized CPU (by Optimal) vs SLO\n")
	fmt.Fprintf(&b, "%4s %8s %8s %10s %8s\n", "wf", "SLO", "orion", "grandslam", "janus")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4s %8v %8.3f %10.3f %8.3f\n", r.Workflow, r.SLO, r.ORION, r.GrandSLAM, r.Janus)
	}
	return b.String()
}
