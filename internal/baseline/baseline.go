// Package baseline implements the serving systems Janus is evaluated
// against (§V-A):
//
//   - GrandSLAM: early binding with one identical size for every function
//     in the workflow, the cheapest size whose P99 latencies sum within
//     the SLO along the layered critical path.
//   - GrandSLAM+: the paper's enhanced variant that lifts the identical-
//     size constraint — the cheapest per-layer sizes whose P99s sum
//     within the SLO.
//   - ORION: distribution-aware early binding. Instead of summing
//     per-function P99s (which double-counts tail mass), ORION models the
//     end-to-end latency distribution by convolving per-function empirical
//     distributions and sizes against the P99 of the convolution.
//   - Optimal: the clairvoyant late-binding lower bound — for each request
//     it knows the exact latency the request would have at every
//     allocation and picks the cheapest plan meeting the SLO.
//
// Janus, Janus-, and Janus+ come from packages synth/adapter; this package
// covers everything else.
package baseline

import (
	"fmt"
	"sync"
	"time"

	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/profile"
	"janus/internal/rng"
	"janus/internal/stats"
	"janus/internal/workflow"
)

// layerPlan maps the workflow's layered critical-path decomposition: the
// layer sequence of the whole DAG (group 0's cone) plus the layer index of
// every decision group, so per-layer size vectors expand into the
// per-group plans the platform's Allocator interface consumes. For chains
// and series-parallel workflows every layer holds exactly one group and
// the expansion is the identity.
type layerPlan struct {
	// seq holds the layer composite profiles, in execution order.
	seq []*profile.FunctionProfile
	// layerOf maps group index -> layer index.
	layerOf []int
}

func newLayerPlan(set *profile.Set) (*layerPlan, error) {
	seq, err := set.ConeProfiles(0)
	if err != nil {
		return nil, err
	}
	layers := set.Workflow.GroupConeLayers(0)
	lp := &layerPlan{seq: seq, layerOf: make([]int, set.Len())}
	for d, layer := range layers {
		for _, g := range layer {
			lp.layerOf[g] = d
		}
	}
	return lp, nil
}

// expand turns a per-layer size vector into a per-group one.
func (lp *layerPlan) expand(perLayer []int) []int {
	sizes := make([]int, len(lp.layerOf))
	for g, d := range lp.layerOf {
		sizes[g] = perLayer[d]
	}
	return sizes
}

// GrandSLAM sizes the workflow with one identical allocation (its
// published constraint) at P99: the cheapest size whose per-layer P99
// latencies sum within the SLO along the layered critical path.
func GrandSLAM(set *profile.Set, slo time.Duration) (*platform.Fixed, error) {
	lp, err := newLayerPlan(set)
	if err != nil {
		return nil, err
	}
	sloMs := int(slo / time.Millisecond)
	grid := set.At(0).Grid
	for _, k := range grid.Levels() {
		total := 0
		for _, fp := range lp.seq {
			total += fp.LMs(99, k)
		}
		if total <= sloMs {
			sizes := make([]int, set.Len())
			for i := range sizes {
				sizes[i] = k
			}
			return &platform.Fixed{System: "grandslam", Sizes: sizes}, nil
		}
	}
	return nil, fmt.Errorf("baseline: GrandSLAM cannot meet SLO %v even at Kmax", slo)
}

// GrandSLAMPlus sizes each layer independently: the cheapest size vector
// whose P99 latencies sum within the SLO along the layered critical path,
// expanded to one size per decision group.
func GrandSLAMPlus(set *profile.Set, slo time.Duration) (*platform.Fixed, error) {
	lp, err := newLayerPlan(set)
	if err != nil {
		return nil, err
	}
	perLayer, ok := minSumSizes(lp.seq, set.At(0).Grid, int(slo/time.Millisecond))
	if !ok {
		return nil, fmt.Errorf("baseline: GrandSLAM+ cannot meet SLO %v even at Kmax", slo)
	}
	return &platform.Fixed{System: "grandslam+", Sizes: lp.expand(perLayer)}, nil
}

// minSumSizes solves min sum(k_i) s.t. sum L_i(99, k_i) <= budgetMs by
// dynamic programming over the layer sequence and budget.
func minSumSizes(seq []*profile.FunctionProfile, grid profile.Grid, budgetMs int) ([]int, bool) {
	if budgetMs < 0 {
		return nil, false
	}
	n := len(seq)
	levels := grid.Levels()
	width := budgetMs + 1
	// dp[t] for the current suffix; rebuilt from the back.
	dp := make([][]int32, n+1)
	choice := make([][]int16, n)
	dp[n] = make([]int32, width)
	for j := n - 1; j >= 0; j-- {
		fp := seq[j]
		dp[j] = make([]int32, width)
		choice[j] = make([]int16, width)
		for t := 0; t < width; t++ {
			best := int32(-1)
			bestKi := int16(-1)
			for ki := len(levels) - 1; ki >= 0; ki-- {
				lat := fp.LMs(99, levels[ki])
				if lat > t {
					break
				}
				if dp[j+1][t-lat] < 0 {
					continue
				}
				cand := int32(levels[ki]) + dp[j+1][t-lat]
				if best < 0 || cand < best {
					best, bestKi = cand, int16(ki)
				}
			}
			dp[j][t] = best
			choice[j][t] = bestKi
		}
	}
	if dp[0][budgetMs] < 0 {
		return nil, false
	}
	sizes := make([]int, n)
	t := budgetMs
	for j := 0; j < n; j++ {
		ki := choice[j][t]
		sizes[j] = levels[ki]
		t -= seq[j].LMs(99, sizes[j])
	}
	return sizes, true
}

// ORIONConfig tunes the distribution-aware search.
type ORIONConfig struct {
	// Trials is the Monte-Carlo sample count per end-to-end distribution
	// evaluation (common random numbers across evaluations).
	Trials int
	// Correlation in [0, 1] is the stage-correlation mixture weight of the
	// end-to-end model, matching the workload's copula: with this
	// probability a trial draws the same quantile rank at every stage.
	// ORION's published strength is exactly that it models the workflow's
	// end-to-end latency distribution rather than summing per-stage P99s.
	Correlation float64
	// Seed drives the Monte-Carlo draws.
	Seed uint64
}

// ORION sizes the chain distribution-aware: starting from the GrandSLAM+
// solution (feasible by construction, since the P99 sum over-estimates the
// end-to-end P99), it greedily shrinks allocations while the P99 of the
// convolved end-to-end distribution still meets the SLO.
func ORION(set *profile.Set, slo time.Duration, cfg ORIONConfig) (*platform.Fixed, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 4000
	}
	if cfg.Correlation < 0 || cfg.Correlation > 1 {
		return nil, fmt.Errorf("baseline: ORION correlation %v outside [0, 1]", cfg.Correlation)
	}
	start, err := GrandSLAMPlus(set, slo)
	if err != nil {
		return nil, fmt.Errorf("baseline: ORION needs a feasible starting point: %w", err)
	}
	n := set.Len()
	grid := set.At(0).Grid
	for j := 0; j < n; j++ {
		if set.At(j).Sample(grid.Min) == nil {
			return nil, fmt.Errorf("baseline: ORION requires profiles with raw samples (stage %d)", j)
		}
	}
	// Pre-draw quantile ranks once (common random numbers): evaluation is
	// deterministic and candidate comparisons are paired. A correlated
	// trial uses one rank for all stages (comonotonic); an independent
	// trial draws per-stage ranks.
	stream := rng.New(cfg.Seed).Split("orion")
	ranks := make([][]float64, cfg.Trials)
	for t := range ranks {
		ranks[t] = make([]float64, n)
		if stream.Float64() < cfg.Correlation {
			u := stream.Float64()
			for j := 0; j < n; j++ {
				ranks[t][j] = u
			}
		} else {
			for j := 0; j < n; j++ {
				ranks[t][j] = stream.Float64()
			}
		}
	}
	sloMs := float64(slo / time.Millisecond)
	p99 := func(sizes []int) float64 {
		sums := make([]float64, cfg.Trials)
		for t := 0; t < cfg.Trials; t++ {
			total := 0.0
			for j := 0; j < n; j++ {
				vals := set.At(j).Sample(sizes[j]).Values()
				idx := int(ranks[t][j] * float64(len(vals)))
				if idx >= len(vals) {
					idx = len(vals) - 1
				}
				total += vals[idx]
			}
			sums[t] = total
		}
		return stats.NewSample(sums).Percentile(99)
	}
	sizes := append([]int(nil), start.Sizes...)
	if p99(sizes) > sloMs {
		// The P99-sum start should dominate the convolved P99; if sampling
		// noise says otherwise, fall back to the safe start.
		return &platform.Fixed{System: "orion", Sizes: sizes}, nil
	}
	for improved := true; improved; {
		improved = false
		// Shrink the stage that keeps the most headroom after shrinking.
		bestStage, bestP99 := -1, 0.0
		for j := 0; j < n; j++ {
			if sizes[j] <= grid.Min {
				continue
			}
			sizes[j] -= grid.Step
			v := p99(sizes)
			sizes[j] += grid.Step
			if v <= sloMs && (bestStage < 0 || v < bestP99) {
				bestStage, bestP99 = j, v
			}
		}
		if bestStage >= 0 {
			sizes[bestStage] -= grid.Step
			improved = true
		}
	}
	return &platform.Fixed{System: "orion", Sizes: sizes}, nil
}

// Optimal is the clairvoyant late-binding oracle, generalized to per-node
// plans over arbitrary DAGs. For each request it reads the pre-sampled
// draws (which make latency a pure function of allocation), solves
// min sum(B_i * k_i) s.t. sum l_i(k_i) <= SLO by DP over the workflow's
// layered critical path, and serves the plan. A layer completes at its
// slowest member node, so its latency at allocation k is the maximum
// member latency and its cost is k times the member count; the per-layer
// choice expands to one size per decision group. For chains and fork-join
// workflows every layer is one stage, so this is exactly the classic
// per-stage oracle. Requests infeasible even at Kmax run entirely at Kmax.
type Optimal struct {
	// members holds, per layer, the flat node index (the node's position
	// in Request.Draws) and latency model of every node executing in
	// that layer.
	members [][]layerMember
	// layerOf maps group index -> layer index.
	layerOf  []int
	grid     profile.Grid
	headroom time.Duration

	mu    sync.Mutex
	plans map[int][]int
}

type layerMember struct {
	flat int
	fn   *perfmodel.Function
}

// NewOptimal builds the oracle for any workflow DAG. headroom is
// subtracted from the SLO before planning, covering platform costs outside
// function execution (pod specialization, adapter decisions).
func NewOptimal(w *workflow.Workflow, fns map[string]*perfmodel.Function, grid profile.Grid, headroom time.Duration) (*Optimal, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if headroom < 0 {
		return nil, fmt.Errorf("baseline: negative headroom %v", headroom)
	}
	groups := w.DecisionGroups()
	layers := w.GroupConeLayers(0)
	o := &Optimal{
		grid:     grid,
		headroom: headroom,
		layerOf:  make([]int, len(groups)),
		members:  make([][]layerMember, len(layers)),
		plans:    make(map[int][]int),
	}
	// base[g] is the flat index of group g's first member.
	base := make([]int, len(groups))
	for g := 1; g < len(groups); g++ {
		base[g] = base[g-1] + len(groups[g-1].Nodes)
	}
	for d, layer := range layers {
		for _, g := range layer {
			o.layerOf[g] = d
			for b, node := range groups[g].Nodes {
				f, ok := fns[node.Function]
				if !ok {
					return nil, fmt.Errorf("baseline: Optimal missing function %q", node.Function)
				}
				o.members[d] = append(o.members[d], layerMember{flat: base[g] + b, fn: f})
			}
		}
	}
	return o, nil
}

// Name implements platform.Allocator.
func (o *Optimal) Name() string { return "optimal" }

// Allocate implements platform.Allocator.
func (o *Optimal) Allocate(req *platform.Request, group int, _ time.Duration) (int, bool) {
	o.mu.Lock()
	plan, ok := o.plans[req.ID]
	o.mu.Unlock()
	if !ok {
		plan = o.solve(req)
		o.mu.Lock()
		o.plans[req.ID] = plan
		o.mu.Unlock()
	}
	return plan[o.layerOf[group]], true
}

// solve runs the per-request DP over (layer, remaining ms).
func (o *Optimal) solve(req *platform.Request) []int {
	n := len(o.members)
	levels := o.grid.Levels()
	sloMs := int((req.Workflow.SLO() - o.headroom) / time.Millisecond)
	if sloMs < 0 {
		sloMs = 0
	}
	// latMs[d][ki]: the request's actual layer latency at each allocation —
	// the slowest member, since the joins wait for it — rounded up so the
	// plan is never optimistic.
	latMs := make([][]int, n)
	minSum, maxSum := 0, 0
	for d, members := range o.members {
		latMs[d] = make([]int, len(levels))
		for ki, k := range levels {
			var worst time.Duration
			for _, m := range members {
				if l := m.fn.Latency(req.Draws[m.flat], req.Batch, k); l > worst {
					worst = l
				}
			}
			latMs[d][ki] = int(worst/time.Millisecond) + 1
		}
		minSum += latMs[d][0]
		maxSum += latMs[d][len(levels)-1]
	}
	// Fast paths: the all-minimum plan is the global cheapest when it
	// fits; nothing helps when even all-Kmax misses.
	if minSum <= sloMs {
		plan := make([]int, n)
		for d := range plan {
			plan[d] = o.grid.Min
		}
		return plan
	}
	if maxSum > sloMs {
		plan := make([]int, n)
		for d := range plan {
			plan[d] = o.grid.Max
		}
		return plan
	}
	width := sloMs + 1
	dp := make([][]int32, n+1)
	choice := make([][]int16, n)
	dp[n] = make([]int32, width)
	for d := n - 1; d >= 0; d-- {
		dp[d] = make([]int32, width)
		choice[d] = make([]int16, width)
		pods := int32(len(o.members[d]))
		for t := 0; t < width; t++ {
			best := int32(-1)
			bestKi := int16(-1)
			for ki := len(levels) - 1; ki >= 0; ki-- {
				lat := latMs[d][ki]
				if lat > t {
					break
				}
				if dp[d+1][t-lat] < 0 {
					continue
				}
				cand := int32(levels[ki])*pods + dp[d+1][t-lat]
				if best < 0 || cand < best {
					best, bestKi = cand, int16(ki)
				}
			}
			dp[d][t] = best
			choice[d][t] = bestKi
		}
	}
	plan := make([]int, n)
	if dp[0][sloMs] < 0 {
		// Infeasible request: sprint at Kmax to minimize the violation.
		for d := range plan {
			plan[d] = o.grid.Max
		}
		return plan
	}
	t := sloMs
	for d := 0; d < n; d++ {
		ki := choice[d][t]
		plan[d] = levels[ki]
		t -= latMs[d][ki]
	}
	return plan
}
