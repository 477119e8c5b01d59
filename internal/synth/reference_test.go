package synth

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"janus/internal/hints"
	"janus/internal/profile"
	"janus/internal/rng"
	"janus/internal/workflow"
)

// The reference kernel below is Algorithm 1's budget sweep as it stood
// before the dense-matrix kernel: every (percentile, level) candidate
// looks its latency and timeout up through a percentile→row map, the
// percentile filter allocates its candidate list per budget, and the
// single-layer cone asks MinCoresWithin. It shares only the P99 DP with
// the kernel under test. CheckReference requires the two to produce
// identical raw tables.

// refProfile is a profile read through a percentile→row map.
type refProfile struct {
	fp     *profile.FunctionProfile
	pIndex map[int]int
}

func newRefProfile(fp *profile.FunctionProfile) refProfile {
	idx := make(map[int]int, len(fp.Percentiles))
	for i, p := range fp.Percentiles {
		idx[p] = i
	}
	return refProfile{fp: fp, pIndex: idx}
}

func (r refProfile) LMs(p, k int) int {
	pi, ok := r.pIndex[p]
	if !ok {
		panic(fmt.Sprintf("reference: %s: percentile %d not profiled", r.fp.Function, p))
	}
	ki, ok := r.fp.Grid.Index(k)
	if !ok {
		panic(fmt.Sprintf("reference: %s: allocation %d not on grid", r.fp.Function, k))
	}
	return r.fp.LatencyMs[pi][ki]
}

func (r refProfile) TimeoutMs(p, k int) int { return r.LMs(99, k) - r.LMs(p, k) }

func (r refProfile) MinCoresWithin(p int, budget time.Duration) (int, bool) {
	budgetMs := int(budget / time.Millisecond)
	for _, k := range r.fp.Grid.Levels() {
		if r.LMs(p, k) <= budgetMs {
			return k, true
		}
	}
	return 0, false
}

// refProgram runs the reference sweep over one cone program's profiles
// and DP.
type refProgram struct {
	*coneProgram
	layers []refProfile
}

func newRefProgram(p *coneProgram) *refProgram {
	r := &refProgram{coneProgram: p}
	for _, fp := range p.profiles {
		r.layers = append(r.layers, newRefProfile(fp))
	}
	return r
}

func (p *refProgram) planP99(j, tMs int, dst []int) []int {
	dst = dst[:0]
	for layer := j; layer < len(p.layers); layer++ {
		ki := p.choiceIdx[layer][tMs]
		if ki < 0 {
			panic(fmt.Sprintf("reference: planP99 called on infeasible state (%d, %d)", layer, tMs))
		}
		k := p.levels[ki]
		dst = append(dst, k)
		tMs -= p.layers[layer].LMs(99, k)
	}
	return dst
}

func (p *refProgram) generateOne(tMs int, planBuf []int) *hints.Hint {
	head := p.layers[0]
	nRem := len(p.layers)
	if nRem == 1 {
		k, ok := head.MinCoresWithin(99, time.Duration(tMs)*time.Millisecond)
		if !ok {
			return nil
		}
		return &hints.Hint{
			BudgetMs:       tMs,
			HeadMillicores: k,
			HeadPercentile: 99,
			PlanMillicores: []int{k},
			ExpectedCost:   p.cfg.Weight * float64(k),
		}
	}
	best := candidate{cost: -1}
	for _, pct := range p.headPercentiles(tMs) {
		for _, k := range p.levels {
			downBudget := tMs - head.LMs(pct, k)
			if downBudget < 0 {
				continue
			}
			if p.cfg.Mode == ModeJanusPlus && nRem >= 3 {
				if c, ok := p.exploreSecond(pct, k, downBudget); ok {
					if best.cost < 0 || c.better(best) {
						best = c
					}
				}
				continue
			}
			down := p.dp[1][downBudget]
			if down < 0 {
				continue
			}
			if int32(head.TimeoutMs(pct, k)) > p.resil[1][downBudget] {
				continue
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
		return nil
	}
	plan := []int{best.k}
	if best.secondExploration {
		plan = append(plan, best.secondK)
		plan = append(plan, p.planP99(2, best.secondDownBudget, planBuf)...)
	} else if best.downBudgetMs >= 0 {
		plan = append(plan, p.planP99(1, best.downBudgetMs, planBuf)...)
	}
	return &hints.Hint{
		BudgetMs:       tMs,
		HeadMillicores: best.k,
		HeadPercentile: best.p,
		PlanMillicores: plan,
		ExpectedCost:   best.cost,
	}
}

func (p *refProgram) headPercentiles(tMs int) []int {
	head := p.layers[0]
	if p.cfg.Mode == ModeJanusMinus {
		if head.LMs(99, p.kmax)+p.downKmax(1) <= tMs {
			return []int{99}
		}
		return nil
	}
	downMs := p.downKmax(1)
	var out []int
	for _, pct := range head.fp.Percentiles {
		if head.LMs(pct, p.kmax)+downMs <= tMs {
			out = append(out, pct)
		}
	}
	return out
}

func (p *refProgram) downKmax(from int) int {
	total := 0
	for j := from; j < len(p.layers); j++ {
		total += p.layers[j].LMs(99, p.kmax)
	}
	return total
}

func (p *refProgram) exploreSecond(p1, k1, budget1 int) (candidate, bool) {
	second := p.layers[1]
	head := p.layers[0]
	nRem := len(p.layers)
	best := candidate{cost: -1}
	for _, p2 := range second.fp.Percentiles {
		for _, k2 := range p.levels {
			restBudget := budget1 - second.LMs(p2, k2)
			if restBudget < 0 {
				continue
			}
			rest := p.dp[2][restBudget]
			if rest < 0 {
				continue
			}
			restRes := p.resil[2][restBudget]
			if int32(second.TimeoutMs(p2, k2)) > restRes {
				continue
			}
			secondRes := int32(second.LMs(p2, k2) - second.LMs(p2, p.kmax))
			if int32(head.TimeoutMs(p1, k1)) > secondRes+restRes {
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

// refTable is the reference generateTable: the same budget grid, swept
// sequentially, one allocated hint per feasible budget.
func refTable(s *Synthesizer, prog *coneProgram, suffix int) *hints.RawTable {
	ref := newRefProgram(prog)
	tmin, tmax := prog.tmin, prog.tmax
	if suffix == 0 && s.cfg.BudgetOverrideMs != [2]int{} {
		tmin, tmax = s.cfg.BudgetOverrideMs[0], s.cfg.BudgetOverrideMs[1]
	}
	if tmax > prog.maxMs {
		tmax = prog.maxMs
	}
	step := s.cfg.BudgetStepMs
	var budgets []int
	if floor := s.cfg.BudgetFloorMs; floor > 0 && floor < tmin {
		k := (tmin - floor + step - 1) / step
		for t := tmin - k*step; t < tmin; t += step {
			if t < 1 {
				continue
			}
			budgets = append(budgets, t)
		}
	}
	for t := tmin; t <= tmax; t += step {
		budgets = append(budgets, t)
	}
	rt := &hints.RawTable{Suffix: suffix, Weight: s.cfg.Weight}
	planBuf := make([]int, 0, len(prog.profiles))
	for _, t := range budgets {
		if h := ref.generateOne(t, planBuf); h != nil {
			rt.Hints = append(rt.Hints, *h)
		}
	}
	return rt
}

// CheckReference sweeps every base and shape-variant cone of s with both
// the kernel and the reference and reports the first table that differs.
// It is exported for the differential test over the catalog workflows,
// which lives in the external test package.
func CheckReference(s *Synthesizer) error {
	check := func(prog *coneProgram, suffix int, name string) error {
		got, err := s.generateTable(prog, suffix)
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		want := refTable(s, prog, suffix)
		if reflect.DeepEqual(got, want) {
			return nil
		}
		if len(got.Hints) != len(want.Hints) {
			return fmt.Errorf("%s: %d hints, reference %d", name, len(got.Hints), len(want.Hints))
		}
		for i := range got.Hints {
			if !reflect.DeepEqual(got.Hints[i], want.Hints[i]) {
				return fmt.Errorf("%s: hint %d is %+v, reference %+v", name, i, got.Hints[i], want.Hints[i])
			}
		}
		return fmt.Errorf("%s: tables differ outside the hints: %+v vs %+v", name, got, want)
	}
	for g, prog := range s.programs {
		if err := check(prog, g, fmt.Sprintf("group %d", g)); err != nil {
			return err
		}
	}
	groups := make([]int, 0, len(s.shaped))
	for g := range s.shaped {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		shapes := make([]string, 0, len(s.shaped[g]))
		for shape := range s.shaped[g] {
			shapes = append(shapes, shape)
		}
		sort.Strings(shapes)
		for _, shape := range shapes {
			if err := check(s.shaped[g][shape], g, fmt.Sprintf("group %d shape %s", g, shape)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fuzzProfile draws a random profile that is monotone the way profiled
// data is: non-increasing in the allocation, non-decreasing in the
// percentile.
func fuzzProfile(name string, grid profile.Grid, pcts []int, stream *rng.Stream) (*profile.FunctionProfile, error) {
	lat := make([][]int, len(pcts))
	base := 20 + stream.IntN(600)
	for pi := range lat {
		row := make([]int, grid.Len())
		cur := base
		for ki := len(row) - 1; ki >= 0; ki-- {
			row[ki] = cur
			cur += stream.IntN(150)
		}
		if pi > 0 {
			for ki := range row {
				if row[ki] < lat[pi-1][ki] {
					row[ki] = lat[pi-1][ki]
				}
			}
		}
		lat[pi] = row
		base += stream.IntN(200)
	}
	return profile.NewFunctionProfile(name, 1, grid, pcts, lat)
}

// fuzzSet builds a random chain of 1-4 layers on a random grid and
// percentile set, with optional shape variants on the first two groups.
func fuzzSet(seed uint64, layers int, shaped bool) (*profile.Set, error) {
	stream := rng.New(seed)
	levels := 2 + stream.IntN(6)
	grid := profile.Grid{Min: 500, Max: 500 + 250*(levels-1), Step: 250}
	pcts := []int{99}
	for p := 97; p >= 1; p -= 1 + stream.IntN(40) {
		pcts = append([]int{p}, pcts...)
	}
	names := make([]string, layers)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	w, err := workflow.NewChain("fuzz", 5*time.Second, names...)
	if err != nil {
		return nil, err
	}
	set := &profile.Set{Workflow: w, Batch: 1}
	for _, name := range names {
		fp, err := fuzzProfile(name, grid, pcts, stream.Split(name))
		if err != nil {
			return nil, err
		}
		set.Profiles = append(set.Profiles, fp)
	}
	if shaped {
		set.Shaped = map[int]map[string]*profile.FunctionProfile{}
		for g := 0; g < layers && g < 2; g++ {
			variants := map[string]*profile.FunctionProfile{}
			for v := 1; v <= 2; v++ {
				fp, err := fuzzProfile(fmt.Sprintf("%s@w=%d", names[g], v), grid, pcts, stream.Split(fmt.Sprintf("shape/%d/%d", g, v)))
				if err != nil {
					return nil, err
				}
				variants[fmt.Sprintf("w=%d", v)] = fp
			}
			set.Shaped[g] = variants
		}
	}
	return set, nil
}

// FuzzKernelMatchesReference checks the dense-matrix kernel against the
// reference on random monotone profiles under every mode, weight, step,
// budget floor and worker count the inputs select.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(1000), uint8(5), uint16(0))
	f.Add(uint64(7), uint8(3+4*2), uint16(250), uint8(1), uint16(40))
	f.Add(uint64(11), uint8(2+4*1+12), uint16(3000), uint8(9), uint16(300))
	f.Add(uint64(23), uint8(0+12), uint16(1), uint8(3), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, weightMilli uint16, step uint8, floorMs uint16) {
		layers := 1 + int(shape%4)
		mode := Mode(shape / 4 % 3)
		set, err := fuzzSet(seed, layers, shape/12%2 == 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Profiles:      set,
			Weight:        float64(1+weightMilli%5000) / 1000,
			Mode:          mode,
			BudgetStepMs:  1 + int(step%40),
			BudgetFloorMs: int(floorMs % 2000),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.workers = 1 + int(seed%3)
		if err := CheckReference(s); err != nil {
			t.Fatalf("seed %d layers %d mode %v: %v", seed, layers, mode, err)
		}
	})
}
