// Package synth implements Janus's Synthesizer (§IV): offline generation of
// hints tables (Algorithm 1) followed by condensing (Algorithm 2, in
// package hints).
//
// Hints are synthesized per decision group of the workflow DAG (see
// workflow.DecisionGroups): the sub-workflow a table covers is the group's
// descendant cone, layered by critical-path depth into a sequential
// composite chain (profile.Set.ConeProfiles). For a chain the cones are
// the classic node suffixes; for a series-parallel workflow they are the
// stage suffixes of the effective chain; for an arbitrary DAG each layer's
// latency is the pointwise max over its groups — a conservative upper
// bound on the cone's max-over-paths latency.
//
// For every cone and every candidate time budget t (explored at
// millisecond granularity across the Eq. 3 range), the synthesizer solves
//
//	min  W*k1 + (p/100)*sum(ki) + (1-p/100)*(N-1)*Kmax      (Eq. 4)
//	s.t. L1(p, k1) + sum Li(99, ki) <= t                     (Eq. 5)
//	     D1(p, k1) <= sum Ri(99, ki)                         (Eq. 6)
//
// where only the head (the cone's own group) explores percentiles below 99
// (Insight-2, "moderate percentile exploration"), the head's potential
// overrun (timeout D) must fit inside the downstream layers' compression
// headroom (resilience R, Insight-3), and the head weight W calibrates the
// local objective against the whole-workflow objective (Insight-4).
//
// Downstream allocations at P99 are a classic budget-split problem solved
// once per cone by dynamic programming over (layer suffix, budget in ms);
// the DP also tracks each solution's total resilience so the Eq. 6 check
// is O(1). Among downstream plans of equal total cost the DP keeps the one
// with the largest total resilience: Algorithm 1's generate() picks an
// arbitrary minimum-resource plan, and preferring the most resilient of
// them maximizes the head's exploration room at no extra cost (a
// deterministic strengthening of the paper's pseudo-code).
package synth

import (
	"fmt"
	"math"
	"time"

	"janus/internal/chunk"
	"janus/internal/hints"
	"janus/internal/profile"
)

// Mode selects the percentile exploration strategy.
type Mode int

const (
	// ModeJanus explores diverse percentiles for the head function only.
	ModeJanus Mode = iota
	// ModeJanusMinus fixes every function at P99 (the ablation the paper
	// calls Janus-).
	ModeJanusMinus
	// ModeJanusPlus extends exploration to the head and the next-to-head
	// function (Janus+): slightly better plans at a much higher synthesis
	// cost (§V-C).
	ModeJanusPlus
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeJanus:
		return "janus"
	case ModeJanusMinus:
		return "janus-"
	case ModeJanusPlus:
		return "janus+"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes a Synthesizer.
type Config struct {
	// Profiles is the workflow's per-group profile set at one batch size.
	Profiles *profile.Set
	// Weight is the head-function weight W (Insight-4); default 1.
	Weight float64
	// Mode selects Janus / Janus- / Janus+.
	Mode Mode
	// BudgetStepMs is the budget sweep granularity; default 1 ms (the
	// paper's "finer granularity in milliseconds").
	BudgetStepMs int
	// BudgetOverrideMs optionally replaces the Eq. 3 range for the whole
	// workflow (group 0's cone), as the paper does per-testbed (§V-F).
	// Zero values mean "use Eq. 3".
	BudgetOverrideMs [2]int
	// BudgetFloorMs optionally extends every cone's exploration range
	// downward to this floor (in ms). Online regeneration sets it to the
	// smallest remaining budget the adapter observed, so a bundle
	// re-synthesized under drifted traffic covers the tight budgets the
	// deployed one was missing on; budgets below the cone's minimum
	// feasible latency still yield no hint. Zero means no extension.
	BudgetFloorMs int
}

// Synthesizer generates hints for one (workflow, batch, weight, mode).
type Synthesizer struct {
	cfg Config
	set *profile.Set
	// programs holds one budget-split program per decision group, each
	// over the group's layered descendant cone.
	programs []*coneProgram
	// shaped holds one variant program per (group, resolved shape) of a
	// dynamic workflow: the group's cone with its head swapped for the
	// width-variant composite. Downstream layers — futures unresolved at
	// the decision instant — keep the conservative base, so every
	// variant shares the base program's P99 DP.
	shaped map[int]map[string]*coneProgram

	// workers bounds the goroutines a budget sweep is spread over:
	// GOMAXPROCS when zero. Every budget's hint depends on the budget
	// alone, so only tests set it, and the tables never depend on it.
	workers int
}

// coneProgram is the Algorithm 1 machinery for one decision group's cone:
// the layered profile sequence (head first) plus the downstream P99 DP.
type coneProgram struct {
	cfg      Config
	profiles []*profile.FunctionProfile
	levels   []int
	kmax     int
	// tmin/tmax are the cone's Eq. 3 exploration bounds, computed once
	// from the layered profile sequence.
	tmin, tmax int
	maxMs      int
	// dp[j][t]: minimal total millicores provisioning layers j.. within
	// budget t ms, all at P99; -1 when infeasible.
	dp [][]int32
	// choiceIdx[j][t]: grid index of layer j's allocation in dp's optimum.
	choiceIdx [][]int16
	// resil[j][t]: total resilience (ms) sum_i R_i(99, k_i) of dp's
	// optimal plan for layers j.. at budget t.
	resil [][]int32
	// downKmaxMs is the P99 execution time of layers 1.. with every layer
	// at Kmax: the floor explore_percentile compares the head against.
	downKmaxMs int
	// head is the head layer's matrix; second is the next-to-head layer's,
	// built only where Janus+ explores it (three or more layers).
	head, second layerMatrix
}

// layerMatrix is one cone layer's profile as dense int32 matrices indexed
// [percentile index][level index], row-major with len(levels) columns.
// The budget sweep walks these indexes instead of looking every
// (percentile, level) candidate up in the profile.
type layerMatrix struct {
	// pcts is the layer's percentile grid, ascending; the last row is P99.
	pcts []int
	// lat is L(p, k); timeout is Eq. 1's D(p, k) = L(99, k) - L(p, k);
	// resil is Eq. 2's R(p, k) = L(p, k) - L(p, Kmax).
	lat, timeout, resil []int32
}

// newLayerMatrix tabulates fp over the grid levels. Latencies must fit in
// int32 milliseconds; timeouts and resiliences are narrowed exactly as the
// Eq. 6 checks always compared them against the int32 DP resilience.
func newLayerMatrix(fp *profile.FunctionProfile, levels []int) (layerMatrix, error) {
	n := len(fp.Percentiles) * len(levels)
	m := layerMatrix{
		pcts:    fp.Percentiles,
		lat:     make([]int32, 0, n),
		timeout: make([]int32, 0, n),
		resil:   make([]int32, 0, n),
	}
	for _, p := range fp.Percentiles {
		for _, k := range levels {
			l := fp.LMs(p, k)
			if l < math.MinInt32 || l > math.MaxInt32 {
				return layerMatrix{}, fmt.Errorf("synth: %s: L(%d, %d) = %d ms overflows int32", fp.Function, p, k, l)
			}
			m.lat = append(m.lat, int32(l))
			m.timeout = append(m.timeout, int32(fp.TimeoutMs(p, k)))
			m.resil = append(m.resil, int32(fp.ResilienceMs(p, k)))
		}
	}
	return m, nil
}

// buildMatrices tabulates the head (and, for Janus+, the second layer)
// and the downstream Kmax floor.
func (p *coneProgram) buildMatrices() error {
	p.downKmaxMs = 0
	for _, fp := range p.profiles[1:] {
		p.downKmaxMs += fp.LMs(99, p.kmax)
	}
	var err error
	if p.head, err = newLayerMatrix(p.profiles[0], p.levels); err != nil {
		return err
	}
	if p.cfg.Mode == ModeJanusPlus && len(p.profiles) >= 3 {
		if p.second, err = newLayerMatrix(p.profiles[1], p.levels); err != nil {
			return err
		}
	}
	return nil
}

// Result carries a generated bundle plus the bookkeeping the evaluation
// reports: per-cone raw hint counts (pre-condensing), condensed counts,
// and wall-clock synthesis time (Fig 6b, Fig 8).
type Result struct {
	Bundle          *hints.Bundle
	RawCounts       []int
	CondensedCounts []int
	Elapsed         time.Duration
}

// New validates the configuration and precomputes the per-cone downstream
// DPs.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.Profiles == nil || cfg.Profiles.Len() == 0 {
		return nil, fmt.Errorf("synth: profiles required")
	}
	if cfg.Weight == 0 {
		cfg.Weight = 1
	}
	if cfg.Weight < 0 {
		return nil, fmt.Errorf("synth: negative weight %v", cfg.Weight)
	}
	if cfg.BudgetStepMs == 0 {
		cfg.BudgetStepMs = 1
	}
	if cfg.BudgetStepMs < 0 {
		return nil, fmt.Errorf("synth: negative budget step")
	}
	if cfg.Mode != ModeJanus && cfg.Mode != ModeJanusMinus && cfg.Mode != ModeJanusPlus {
		return nil, fmt.Errorf("synth: unknown mode %d", int(cfg.Mode))
	}
	if cfg.BudgetOverrideMs[0] < 0 || cfg.BudgetOverrideMs[1] < cfg.BudgetOverrideMs[0] {
		return nil, fmt.Errorf("synth: invalid budget override %v", cfg.BudgetOverrideMs)
	}
	if cfg.BudgetFloorMs < 0 {
		return nil, fmt.Errorf("synth: negative budget floor %d", cfg.BudgetFloorMs)
	}
	set := cfg.Profiles
	grid := set.At(0).Grid
	for i := 1; i < set.Len(); i++ {
		if set.At(i).Grid != grid {
			return nil, fmt.Errorf("synth: group %d uses a different grid", i)
		}
	}
	s := &Synthesizer{cfg: cfg, set: set}
	for g := 0; g < set.Len(); g++ {
		seq, err := set.ConeProfiles(g)
		if err != nil {
			return nil, err
		}
		// The cone's Eq. 3 bounds, from the layered sequence itself (the
		// same sums Set.BudgetRangeMs computes, without re-deriving the
		// cone): Tmin = sum L(pMin, Kmax), Tmax = sum L(99, Kmin).
		tmin, tmax := 0, 0
		for _, fp := range seq {
			tmin += fp.LMs(fp.Percentiles[0], grid.Max)
			tmax += fp.LMs(99, grid.Min)
		}
		maxMs := tmax
		if g == 0 && cfg.BudgetOverrideMs[1] > maxMs {
			maxMs = cfg.BudgetOverrideMs[1]
		}
		p := &coneProgram{
			cfg:      cfg,
			profiles: seq,
			levels:   grid.Levels(),
			kmax:     grid.Max,
			tmin:     tmin,
			tmax:     tmax,
			maxMs:    maxMs,
		}
		if err := p.buildMatrices(); err != nil {
			return nil, err
		}
		p.buildDP()
		s.programs = append(s.programs, p)
	}
	for g, variants := range set.Shaped {
		if g < 0 || g >= set.Len() {
			return nil, fmt.Errorf("synth: shaped profiles for group %d, but workflow has %d groups", g, set.Len())
		}
		for shape, fp := range variants {
			if fp == nil {
				return nil, fmt.Errorf("synth: group %d shape %q profile missing", g, shape)
			}
			if fp.Grid != grid {
				return nil, fmt.Errorf("synth: group %d shape %q uses a different grid", g, shape)
			}
			if s.shaped == nil {
				s.shaped = map[int]map[string]*coneProgram{}
			}
			if s.shaped[g] == nil {
				s.shaped[g] = map[string]*coneProgram{}
			}
			prog, err := variantProgram(s.programs[g], fp)
			if err != nil {
				return nil, err
			}
			s.shaped[g][shape] = prog
		}
	}
	return s, nil
}

// variantProgram derives the budget-split program of one resolved shape
// from the group's base program: the head profile is swapped for the
// shape variant and the Eq. 3 bounds recomputed, while the downstream
// layers — and therefore the P99 DP, which never reads the head, and the
// second-layer matrix — are shared with the base. The sweep stays clamped
// to the base's table width, which is safe because a resolved shape can
// only shrink the head (a prefix max over fewer replicas), never outgrow
// the worst case.
func variantProgram(base *coneProgram, head *profile.FunctionProfile) (*coneProgram, error) {
	seq := append([]*profile.FunctionProfile(nil), base.profiles...)
	seq[0] = head
	tmin, tmax := 0, 0
	for _, fp := range seq {
		tmin += fp.LMs(fp.Percentiles[0], fp.Grid.Max)
		tmax += fp.LMs(99, fp.Grid.Min)
	}
	if tmax > base.maxMs {
		tmax = base.maxMs
	}
	hm, err := newLayerMatrix(head, base.levels)
	if err != nil {
		return nil, err
	}
	return &coneProgram{
		cfg:        base.cfg,
		profiles:   seq,
		levels:     base.levels,
		kmax:       base.kmax,
		tmin:       tmin,
		tmax:       tmax,
		maxMs:      base.maxMs,
		dp:         base.dp,
		choiceIdx:  base.choiceIdx,
		resil:      base.resil,
		downKmaxMs: base.downKmaxMs,
		head:       hm,
		second:     base.second,
	}, nil
}

// buildDP fills dp/choiceIdx/resil bottom-up over the cone's layer
// suffixes.
func (p *coneProgram) buildDP() {
	n := len(p.profiles)
	p.dp = make([][]int32, n+1)
	p.choiceIdx = make([][]int16, n+1)
	p.resil = make([][]int32, n+1)
	width := p.maxMs + 1
	p.dp[n] = make([]int32, width) // all zero: nothing left to provision
	p.resil[n] = make([]int32, width)
	for j := n - 1; j >= 0; j-- {
		fp := p.profiles[j]
		p.dp[j] = make([]int32, width)
		p.choiceIdx[j] = make([]int16, width)
		p.resil[j] = make([]int32, width)
		l99 := make([]int, len(p.levels))
		for ki, k := range p.levels {
			l99[ki] = fp.LMs(99, k)
		}
		l99AtMax := l99[len(l99)-1]
		for t := 0; t < width; t++ {
			best := int32(-1)
			bestKi := int16(-1)
			var bestRes int32
			for ki := len(p.levels) - 1; ki >= 0; ki-- {
				lat := l99[ki]
				if lat > t {
					break // latencies grow as ki shrinks; nothing smaller fits
				}
				down := p.dp[j+1][t-lat]
				if down < 0 {
					continue
				}
				cand := int32(p.levels[ki]) + down
				candRes := int32(lat-l99AtMax) + p.resil[j+1][t-lat]
				if best < 0 || cand < best || (cand == best && candRes > bestRes) {
					best = cand
					bestKi = int16(ki)
					bestRes = candRes
				}
			}
			p.dp[j][t] = best
			p.choiceIdx[j][t] = bestKi
			p.resil[j][t] = bestRes
		}
	}
}

// planP99 materializes the DP's optimal P99 allocation for layers j.. at
// budget tMs into dst, which must hold exactly the suffix length.
func (p *coneProgram) planP99(j, tMs int, dst []int) {
	for i := range dst {
		layer := j + i
		ki := p.choiceIdx[layer][tMs]
		if ki < 0 {
			panic(fmt.Sprintf("synth: planP99 called on infeasible state (%d, %d)", layer, tMs))
		}
		k := p.levels[ki]
		dst[i] = k
		tMs -= p.profiles[layer].LMs(99, k)
	}
}

// candidate is one feasible head decision during generation.
type candidate struct {
	cost float64
	p    int
	k    int
	// downBudgetMs is the budget handed to the downstream DP.
	downBudgetMs int
	// secondP/secondK record the Janus+ next-to-head exploration.
	secondP, secondK  int
	secondDownBudget  int
	secondExploration bool
}

// better orders candidates: lower cost wins; ties prefer the safer (higher)
// percentile, then the smaller head allocation — a total, deterministic
// order.
func (c candidate) better(o candidate) bool {
	const eps = 1e-9
	if c.cost < o.cost-eps {
		return true
	}
	if c.cost > o.cost+eps {
		return false
	}
	if c.p != o.p {
		return c.p > o.p
	}
	return c.k < o.k
}

// GenerateSuffix runs Algorithm 1 for the sub-workflow headed by decision
// group `suffix` (its descendant cone), sweeping the budget range at the
// configured step. The name is kept from the chain era: for a chain the
// cone of group i is exactly the node suffix i.. of the chain.
func (s *Synthesizer) GenerateSuffix(suffix int) (*hints.RawTable, error) {
	if suffix < 0 || suffix >= s.set.Len() {
		return nil, fmt.Errorf("synth: suffix %d out of range [0, %d)", suffix, s.set.Len())
	}
	return s.generateTable(s.programs[suffix], suffix)
}

// generateTable sweeps one cone program's budget range — base or shape
// variant — into a raw table carrying the given suffix index.
func (s *Synthesizer) generateTable(prog *coneProgram, suffix int) (*hints.RawTable, error) {
	tmin, tmax := prog.tmin, prog.tmax
	if suffix == 0 && s.cfg.BudgetOverrideMs != [2]int{} {
		tmin, tmax = s.cfg.BudgetOverrideMs[0], s.cfg.BudgetOverrideMs[1]
	}
	if tmax > prog.maxMs {
		tmax = prog.maxMs
	}
	step := s.cfg.BudgetStepMs
	first := tmin
	if floor := s.cfg.BudgetFloorMs; floor > 0 && floor < tmin {
		// Extend the sweep downward to the observed floor, anchored at
		// tmin so every original budget stays on the grid: the floor adds
		// coverage below the original minimum without re-pricing above
		// it. The step count rounds up so the first extended budget lands
		// at or below the floor — a floor inside the last step would
		// otherwise stay uncovered and keep missing after the swap.
		first = tmin - (tmin-floor+step-1)/step*step
		for first < 1 {
			first += step
		}
	}
	// The sweep is first, first+step, ...: the floor extension below
	// tmin, then tmin..tmax.
	count := (tmin - first) / step
	if tmax >= tmin {
		count += (tmax-tmin)/step + 1
	}
	// Every hint of the sweep lands in one slice, its plan in a per-worker
	// arena; budgets no plan fits stay zero (a real hint's head size is a
	// positive grid level) and are dropped below.
	out := make([]hints.Hint, count)
	layers := len(prog.profiles)
	chunk.Run(count, 1, s.workers, func(lo, hi int) {
		arena := make([]int, (hi-lo)*layers)
		for i := lo; i < hi; i++ {
			plan := arena[:layers:layers]
			arena = arena[layers:]
			prog.generateOne(first+i*step, &out[i], plan)
		}
	})
	kept := out[:0]
	for _, h := range out {
		if h.HeadMillicores > 0 {
			kept = append(kept, h)
		}
	}
	rt := &hints.RawTable{Suffix: suffix, Weight: s.cfg.Weight}
	if len(kept) > 0 {
		rt.Hints = kept
	}
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	return rt, nil
}

// generateOne solves the Eq. 4-8 program for the cone at one budget. When
// a plan fits, it writes the hint to h with plan (one entry per layer) as
// its plan; otherwise it leaves h untouched.
func (p *coneProgram) generateOne(tMs int, h *hints.Hint, plan []int) {
	nl := len(p.levels)
	nRem := len(p.profiles)
	head := &p.head
	p99 := len(head.pcts) - 1
	// Single-layer cone: min_resource at P99 — there is no downstream
	// resilience to absorb a timeout.
	if nRem == 1 {
		for ki, l := range head.lat[p99*nl : (p99+1)*nl] {
			if int(l) <= tMs {
				k := p.levels[ki]
				plan[0] = k
				*h = hints.Hint{
					BudgetMs:       tMs,
					HeadMillicores: k,
					HeadPercentile: 99,
					PlanMillicores: plan,
					ExpectedCost:   p.cfg.Weight * float64(k),
				}
				return
			}
		}
		return
	}
	explore := p.cfg.Mode == ModeJanusPlus && nRem >= 3
	dp, resil := p.dp[1], p.resil[1]
	best := candidate{cost: -1}
	pi := 0
	if p.cfg.Mode == ModeJanusMinus {
		pi = p99
	}
	for ; pi < len(head.pcts); pi++ {
		lat := head.lat[pi*nl : (pi+1)*nl]
		// explore_percentile: keep the percentiles whose Kmax execution
		// keeps the cone within the budget.
		if int(lat[nl-1])+p.downKmaxMs > tMs {
			continue
		}
		pct := head.pcts[pi]
		timeout := head.timeout[pi*nl : (pi+1)*nl]
		for ki, k := range p.levels {
			downBudget := tMs - int(lat[ki])
			if downBudget < 0 {
				continue
			}
			if explore {
				if c, ok := p.exploreSecond(pct, k, timeout[ki], downBudget); ok {
					if best.cost < 0 || c.better(best) {
						best = c
					}
				}
				continue
			}
			down := dp[downBudget]
			if down < 0 {
				continue
			}
			if timeout[ki] > resil[downBudget] {
				continue // Eq. 6: downstream cannot absorb the overrun
			}
			pf := float64(pct) / 100
			cost := p.cfg.Weight*float64(k) + pf*float64(down) + (1-pf)*float64(nRem-1)*float64(p.kmax)
			c := candidate{cost: cost, p: pct, k: k, downBudgetMs: downBudget}
			if best.cost < 0 || c.better(best) {
				best = c
			}
		}
	}
	if best.cost < 0 {
		return
	}
	plan[0] = best.k
	if best.secondExploration {
		plan[1] = best.secondK
		p.planP99(2, best.secondDownBudget, plan[2:])
	} else {
		p.planP99(1, best.downBudgetMs, plan[1:])
	}
	*h = hints.Hint{
		BudgetMs:       tMs,
		HeadMillicores: best.k,
		HeadPercentile: best.p,
		PlanMillicores: plan,
		ExpectedCost:   best.cost,
	}
}

// exploreSecond is the Janus+ extension: the next-to-head layer also
// explores percentiles. The head's timeout must fit in the second layer's
// own resilience plus the rest's; the second's timeout must fit in the
// rest's.
func (p *coneProgram) exploreSecond(p1, k1 int, headTimeout int32, budget1 int) (candidate, bool) {
	nl := len(p.levels)
	second := &p.second
	nRem := len(p.profiles)
	dp, restResil := p.dp[2], p.resil[2]
	best := candidate{cost: -1}
	for pi, p2 := range second.pcts {
		lat := second.lat[pi*nl : (pi+1)*nl]
		timeout := second.timeout[pi*nl : (pi+1)*nl]
		resil := second.resil[pi*nl : (pi+1)*nl]
		for ki, k2 := range p.levels {
			restBudget := budget1 - int(lat[ki])
			if restBudget < 0 {
				continue
			}
			rest := dp[restBudget]
			if rest < 0 {
				continue
			}
			restRes := restResil[restBudget]
			if timeout[ki] > restRes {
				continue
			}
			if headTimeout > resil[ki]+restRes {
				continue
			}
			pf1 := float64(p1) / 100
			pf2 := float64(p2) / 100
			inner := float64(k2) + pf2*float64(rest) + (1-pf2)*float64(nRem-2)*float64(p.kmax)
			cost := p.cfg.Weight*float64(k1) + pf1*inner + (1-pf1)*float64(nRem-1)*float64(p.kmax)
			c := candidate{
				cost: cost, p: p1, k: k1,
				secondP: p2, secondK: k2, secondDownBudget: restBudget,
				secondExploration: true,
			}
			if best.cost < 0 || c.better(best) {
				best = c
			}
		}
	}
	return best, best.cost >= 0
}

// condensedTable sweeps one cone program of group g, base or shape
// variant, and condenses the raw table into a bundle table stamped with
// the workflow and batch; it also returns the raw hint count.
func (s *Synthesizer) condensedTable(prog *coneProgram, g int) (*hints.Table, int, error) {
	raw, err := s.generateTable(prog, g)
	if err != nil {
		return nil, 0, err
	}
	tab, err := hints.Condense(raw)
	if err != nil {
		return nil, 0, err
	}
	tab.Workflow = s.set.Workflow.Name()
	tab.Batch = s.set.Batch
	return tab, len(raw.Hints), nil
}

// GenerateBundle generates and condenses tables for every decision group's
// cone.
func (s *Synthesizer) GenerateBundle() (*Result, error) {
	start := time.Now()
	res := &Result{
		Bundle: &hints.Bundle{
			Workflow:      s.set.Workflow.Name(),
			Batch:         s.set.Batch,
			Weight:        s.cfg.Weight,
			SLOMs:         int(s.set.Workflow.SLO() / time.Millisecond),
			MaxMillicores: s.set.At(0).Grid.Max,
		},
	}
	for i, prog := range s.programs {
		tab, raw, err := s.condensedTable(prog, i)
		if err != nil {
			return nil, err
		}
		res.Bundle.Tables = append(res.Bundle.Tables, tab)
		res.RawCounts = append(res.RawCounts, raw)
		res.CondensedCounts = append(res.CondensedCounts, tab.Size())
	}
	for g, variants := range s.shaped {
		for shape, prog := range variants {
			tab, _, err := s.condensedTable(prog, g)
			if err != nil {
				return nil, err
			}
			if res.Bundle.Shaped == nil {
				res.Bundle.Shaped = map[int]map[string]*hints.Table{}
			}
			if res.Bundle.Shaped[g] == nil {
				res.Bundle.Shaped[g] = map[string]*hints.Table{}
			}
			res.Bundle.Shaped[g][shape] = tab
		}
	}
	if err := res.Bundle.Validate(); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
