package experiment

import (
	"fmt"
	"strings"
	"time"

	"janus/internal/azure"
	"janus/internal/baseline"
	"janus/internal/interfere"
	"janus/internal/rng"
	"janus/internal/stats"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// Fig1a is the slack CDF over the Azure-like production trace (§II-A).
type Fig1a struct {
	Grid         []float64
	All          []stats.Point
	Popular      []stats.Point
	PopularShare float64
}

// Fig1a reproduces the motivation CDF: the slack distribution of all
// function invocations and of the top-100 most popular functions.
func (s *Suite) Fig1a() (*Fig1a, error) {
	cfg := azure.DefaultTraceConfig()
	cfg.Seed = s.cfg.Seed
	tr, err := azure.Generate(cfg)
	if err != nil {
		return nil, err
	}
	grid := make([]float64, 0, 21)
	for x := 0.0; x <= 1.0001; x += 0.05 {
		grid = append(grid, x)
	}
	return &Fig1a{
		Grid:         grid,
		All:          tr.SlackCDF(false, grid),
		Popular:      tr.SlackCDF(true, grid),
		PopularShare: tr.PopularShare(),
	}, nil
}

// String renders the CDF rows.
func (f *Fig1a) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1a: slack CDF (popular functions = %.1f%% of invocations)\n", f.PopularShare*100)
	fmt.Fprintf(&b, "%8s %12s %12s\n", "slack", "CDF(all)", "CDF(popular)")
	for i := range f.Grid {
		fmt.Fprintf(&b, "%8.2f %12.3f %12.3f\n", f.Grid[i], f.All[i].F, f.Popular[i].F)
	}
	return b.String()
}

// Fig1bRow is one function's working-set-driven latency spread at a fixed
// allocation (Fig 1b: P1 vs P99 bars for OD, QA, TS).
type Fig1bRow struct {
	Function string
	P1       time.Duration
	P99      time.Duration
	Ratio    float64
}

// Fig1b reproduces the working-set variance measurement.
func (s *Suite) Fig1b() ([]Fig1bRow, error) {
	set, err := s.Profiles(workflow.IntelligentAssistant(), 1)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1bRow, 0, set.Len())
	for i := 0; i < set.Len(); i++ {
		fp := set.At(i)
		p1 := fp.L(1, 2000)
		p99 := fp.L(99, 2000)
		rows = append(rows, Fig1bRow{
			Function: fp.Function,
			P1:       p1,
			P99:      p99,
			Ratio:    float64(p99) / float64(p1),
		})
	}
	return rows, nil
}

// FormatFig1b renders the rows.
func FormatFig1b(rows []Fig1bRow) string {
	var b strings.Builder
	b.WriteString("Fig 1b: latency variance from varying working sets (at 2000 millicores)\n")
	fmt.Fprintf(&b, "%8s %10s %10s %8s\n", "func", "P1", "P99", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %10v %10v %7.2fx\n", r.Function, r.P1.Round(time.Millisecond), r.P99.Round(time.Millisecond), r.Ratio)
	}
	return b.String()
}

// Fig1cRow is one dominant-dimension function's normalized latency under
// 1..6 co-located instances.
type Fig1cRow struct {
	Function   string
	Dimension  string
	Normalized []float64
}

// Fig1c reproduces the interference measurement: four functions with
// different dominant resources, slowed by co-locating homogeneous
// instances.
func (s *Suite) Fig1c() ([]Fig1cRow, error) {
	micro := map[string]interfere.Dimension{
		"aes-encrypt": interfere.CPU,
		"redis-read":  interfere.Memory,
		"disk-write":  interfere.IO,
		"socket-comm": interfere.Network,
	}
	order := []string{"aes-encrypt", "redis-read", "disk-write", "socket-comm"}
	rows := make([]Fig1cRow, 0, len(order))
	for _, name := range order {
		fn := s.functions[name]
		if fn == nil {
			return nil, fmt.Errorf("experiment: micro function %q missing", name)
		}
		stream := rng.New(s.cfg.Seed).Split("fig1c/" + name)
		base := 0.0
		row := Fig1cRow{Function: name, Dimension: micro[name].String()}
		for n := 1; n <= 6; n++ {
			var sum stats.Summary
			for i := 0; i < 400; i++ {
				d := fn.NewDraw(stream, 1, n, s.interf)
				sum.Observe(float64(fn.Latency(d, 1, 2000)) / float64(time.Millisecond))
			}
			if n == 1 {
				base = sum.Mean()
			}
			row.Normalized = append(row.Normalized, sum.Mean()/base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig1c renders the rows.
func FormatFig1c(rows []Fig1cRow) string {
	var b strings.Builder
	b.WriteString("Fig 1c: normalized latency vs co-located homogeneous instances\n")
	fmt.Fprintf(&b, "%12s %8s %6s %6s %6s %6s %6s %6s\n", "func", "dim", "n=1", "n=2", "n=3", "n=4", "n=5", "n=6")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12s %8s", r.Function, r.Dimension)
		for _, v := range r.Normalized {
			fmt.Fprintf(&b, " %5.2fx", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig2Row is one request's early- vs late-binding comparison.
type Fig2Row struct {
	RequestID int
	EarlyE2E  time.Duration
	LateE2E   time.Duration
	EarlyCPU  float64 // normalized by the per-request Optimal
	LateCPU   float64
}

// Fig2 is the motivating comparison (§II-C): early binding (GrandSLAM+
// sizing) vs late binding (runtime resource adaptation) over individual
// requests, with CPU normalized by the exhaustive-search optimum.
type Fig2 struct {
	SLO  time.Duration
	Rows []Fig2Row
}

// Fig2 runs the motivation experiment over n requests of the IA workflow.
func (s *Suite) Fig2(n int) (*Fig2, error) {
	w := workflow.IntelligentAssistant()
	reqs, err := s.Workload(w, 1)
	if err != nil {
		return nil, err
	}
	if n > len(reqs) {
		n = len(reqs)
	}
	sub := reqs[:n]
	ex, err := s.executor()
	if err != nil {
		return nil, err
	}
	set, err := s.Profiles(w, 1)
	if err != nil {
		return nil, err
	}
	early, err := baseline.GrandSLAMPlus(set, w.SLO())
	if err != nil {
		return nil, err
	}
	earlyTraces, err := ex.Run(sub, early)
	if err != nil {
		return nil, err
	}
	d, err := s.Deployment(w, 1, synth.ModeJanus, 1)
	if err != nil {
		return nil, err
	}
	lateTraces, err := ex.Run(sub, d.Allocator(SysJanus))
	if err != nil {
		return nil, err
	}
	opt, err := s.allocator(SysOptimal, w, 1)
	if err != nil {
		return nil, err
	}
	optTraces, err := ex.Run(sub, opt)
	if err != nil {
		return nil, err
	}
	out := &Fig2{SLO: w.SLO()}
	for i := range sub {
		optMC := float64(optTraces[i].TotalMillicores)
		out.Rows = append(out.Rows, Fig2Row{
			RequestID: i,
			EarlyE2E:  earlyTraces[i].E2E,
			LateE2E:   lateTraces[i].E2E,
			EarlyCPU:  float64(earlyTraces[i].TotalMillicores) / optMC,
			LateCPU:   float64(lateTraces[i].TotalMillicores) / optMC,
		})
	}
	return out, nil
}

// MeanSavings reports the average CPU reduction of late binding over early
// binding (the paper quotes up to 42.2% per request).
func (f *Fig2) MeanSavings() float64 {
	if len(f.Rows) == 0 {
		return 0
	}
	total := 0.0
	for _, r := range f.Rows {
		total += 1 - r.LateCPU/r.EarlyCPU
	}
	return total / float64(len(f.Rows))
}

// MaxSavings reports the largest per-request CPU reduction.
func (f *Fig2) MaxSavings() float64 {
	best := 0.0
	for _, r := range f.Rows {
		if s := 1 - r.LateCPU/r.EarlyCPU; s > best {
			best = s
		}
	}
	return best
}

// String renders the per-request series.
func (f *Fig2) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: early vs late binding over %d requests (SLO %v)\n", len(f.Rows), f.SLO)
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n", "req", "early E2E", "late E2E", "early CPU/opt", "late CPU/opt")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%6d %12v %12v %13.2f %13.2f\n",
			r.RequestID, r.EarlyE2E.Round(time.Millisecond), r.LateE2E.Round(time.Millisecond), r.EarlyCPU, r.LateCPU)
	}
	fmt.Fprintf(&b, "mean late-binding CPU savings: %.1f%% (max %.1f%%)\n", f.MeanSavings()*100, f.MaxSavings()*100)
	return b.String()
}
