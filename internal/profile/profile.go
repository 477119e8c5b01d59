// Package profile implements the developer-side Profiler of Janus (§III-B)
// and the profile data model the synthesizer consumes.
//
// A function profile is the execution-time distribution L(p, k) extracted
// at a grid of percentiles p (default 1..99, step 5, always including 99)
// and CPU allocations k (default 1000..3000 millicores, step 100), per
// concurrency (batch) level. From L the paper derives its two risk metrics:
//
//	timeout    D(p, k) = L(99, k) - L(p, k)        (Eq. 1)
//	resilience R(p, k) = L(p, k) - L(p, Kmax)      (Eq. 2, prose sign)
//
// Timeout quantifies how much an execution profiled at percentile p can
// overrun; resilience quantifies how much scaling a function up to Kmax can
// still compress it. A hint is safe when the head's timeout fits within the
// downstream functions' total resilience.
package profile

import (
	"fmt"
	"strconv"
	"time"

	"janus/internal/chunk"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/rng"
	"janus/internal/stats"
	"janus/internal/workflow"
)

// Grid is an inclusive arithmetic grid of millicore allocations.
type Grid struct {
	Min, Max, Step int
}

// DefaultGrid mirrors the paper's knob: 1000-3000 millicores, step 100.
func DefaultGrid() Grid { return Grid{Min: 1000, Max: 3000, Step: 100} }

// Validate checks grid consistency.
func (g Grid) Validate() error {
	if g.Min <= 0 || g.Max < g.Min || g.Step <= 0 {
		return fmt.Errorf("profile: invalid grid %+v", g)
	}
	if (g.Max-g.Min)%g.Step != 0 {
		return fmt.Errorf("profile: grid max %d not reachable from min %d with step %d", g.Max, g.Min, g.Step)
	}
	return nil
}

// Levels returns all allocations in the grid, ascending.
func (g Grid) Levels() []int {
	out := make([]int, 0, (g.Max-g.Min)/g.Step+1)
	for k := g.Min; k <= g.Max; k += g.Step {
		out = append(out, k)
	}
	return out
}

// Len reports the number of grid levels.
func (g Grid) Len() int { return (g.Max-g.Min)/g.Step + 1 }

// Index maps an allocation to its grid position.
func (g Grid) Index(k int) (int, bool) {
	if k < g.Min || k > g.Max || (k-g.Min)%g.Step != 0 {
		return 0, false
	}
	return (k - g.Min) / g.Step, true
}

// DefaultPercentiles returns the paper's profiling percentiles: 1% to 99%
// with a step of 5%, with the P99 anchor (1, 5, 10, ..., 95, 99).
func DefaultPercentiles() []int {
	out := append(make([]int, 0, 21), 1)
	for p := 5; p <= 95; p += 5 {
		out = append(out, p)
	}
	return append(out, 99)
}

func validatePercentiles(ps []int) error {
	if len(ps) == 0 {
		return fmt.Errorf("profile: percentile set empty")
	}
	prev := 0
	has99 := false
	for _, p := range ps {
		if p < 1 || p > 99 {
			return fmt.Errorf("profile: percentile %d out of [1, 99]", p)
		}
		if p <= prev {
			return fmt.Errorf("profile: percentiles must be strictly increasing, got %v", ps)
		}
		prev = p
		if p == 99 {
			has99 = true
		}
	}
	if !has99 {
		return fmt.Errorf("profile: percentile set must include 99 (the SLO anchor)")
	}
	return nil
}

// FunctionProfile is L(p, k) for one function at one batch size.
type FunctionProfile struct {
	// Function is the profiled function's name.
	Function string `json:"function"`
	// Batch is the concurrency level profiled.
	Batch int `json:"batch"`
	// Grid is the allocation grid.
	Grid Grid `json:"grid"`
	// Percentiles is the ascending percentile grid (includes 99).
	Percentiles []int `json:"percentiles"`
	// LatencyMs[pi][ki] is L(Percentiles[pi], Levels[ki]) in milliseconds.
	LatencyMs [][]int `json:"latency_ms"`

	// samples[ki] keeps the raw latency sample per allocation level for
	// distribution-aware consumers (the ORION baseline). Not serialized.
	samples []*stats.Sample
	// pRow[p] is 1 + the LatencyMs row of percentile p, or 0 when p is
	// not profiled: a dense table over the validated range [1, 99], so a
	// lookup is an index, not a hash.
	pRow [100]uint8
}

func (fp *FunctionProfile) init() error {
	if err := fp.Grid.Validate(); err != nil {
		return err
	}
	if err := validatePercentiles(fp.Percentiles); err != nil {
		return err
	}
	if len(fp.LatencyMs) != len(fp.Percentiles) {
		return fmt.Errorf("profile: %s: %d latency rows for %d percentiles", fp.Function, len(fp.LatencyMs), len(fp.Percentiles))
	}
	for i, row := range fp.LatencyMs {
		if len(row) != fp.Grid.Len() {
			return fmt.Errorf("profile: %s: row %d has %d levels, want %d", fp.Function, i, len(row), fp.Grid.Len())
		}
	}
	fp.pRow = [100]uint8{}
	for i, p := range fp.Percentiles {
		fp.pRow[p] = uint8(i + 1)
	}
	return nil
}

// row returns the LatencyMs row of percentile p.
func (fp *FunctionProfile) row(p int) (int, bool) {
	if p < 1 || p >= len(fp.pRow) || fp.pRow[p] == 0 {
		return 0, false
	}
	return int(fp.pRow[p]) - 1, true
}

// NewFunctionProfile builds a validated profile from externally measured
// latencies: latencyMs[pi][ki] is the latency at percentiles[pi] and
// grid.Levels()[ki] in milliseconds. Deployments that measure functions
// with their own tooling import profiles through this constructor.
func NewFunctionProfile(function string, batch int, grid Grid, percentiles []int, latencyMs [][]int) (*FunctionProfile, error) {
	if function == "" {
		return nil, fmt.Errorf("profile: function name required")
	}
	if batch < 1 {
		return nil, fmt.Errorf("profile: batch %d invalid", batch)
	}
	fp := &FunctionProfile{
		Function:    function,
		Batch:       batch,
		Grid:        grid,
		Percentiles: append([]int(nil), percentiles...),
		LatencyMs:   latencyMs,
	}
	if err := fp.init(); err != nil {
		return nil, err
	}
	return fp, nil
}

// LMs returns L(p, k) in milliseconds. Both p and k must be on-grid.
func (fp *FunctionProfile) LMs(p, k int) int {
	pi, ok := fp.row(p)
	if !ok {
		panic(fmt.Sprintf("profile: %s: percentile %d not profiled", fp.Function, p))
	}
	ki, ok := fp.Grid.Index(k)
	if !ok {
		panic(fmt.Sprintf("profile: %s: allocation %d not on grid", fp.Function, k))
	}
	return fp.LatencyMs[pi][ki]
}

// L returns L(p, k) as a duration.
func (fp *FunctionProfile) L(p, k int) time.Duration {
	return time.Duration(fp.LMs(p, k)) * time.Millisecond
}

// TimeoutMs returns D(p, k) = L(99, k) - L(p, k) in milliseconds (Eq. 1).
func (fp *FunctionProfile) TimeoutMs(p, k int) int {
	return fp.LMs(99, k) - fp.LMs(p, k)
}

// ResilienceMs returns R(p, k) = L(p, k) - L(p, Kmax) in milliseconds
// (Eq. 2 with the prose sign: the compression achievable by scaling up).
func (fp *FunctionProfile) ResilienceMs(p, k int) int {
	return fp.LMs(p, k) - fp.LMs(p, fp.Grid.Max)
}

// MinCoresWithin returns the smallest on-grid allocation whose L(p, k)
// fits the budget, or false if even Kmax misses it.
func (fp *FunctionProfile) MinCoresWithin(p int, budget time.Duration) (int, bool) {
	budgetMs := int(budget / time.Millisecond)
	for _, k := range fp.Grid.Levels() {
		if fp.LMs(p, k) <= budgetMs {
			return k, true
		}
	}
	return 0, false
}

// Sample returns the raw latency sample at allocation k, or nil when the
// profile keeps none: only a static chain's function profiles do, and
// never once deserialized.
func (fp *FunctionProfile) Sample(k int) *stats.Sample {
	ki, ok := fp.Grid.Index(k)
	if !ok || fp.samples == nil {
		return nil
	}
	return fp.samples[ki]
}

// Set bundles the per-decision-group profiles of a workflow at one batch
// size. For a chain there is one profile per node in execution order; for
// any other DAG each profile covers one decision group (nodes sharing an
// identical predecessor set) as a max-over-members composite.
type Set struct {
	// Workflow is the profiled application.
	Workflow *workflow.Workflow
	// Batch is the concurrency level.
	Batch int
	// Profiles holds one profile per decision group: Profiles[i] covers
	// Workflow.DecisionGroups()[i]. For a dynamic workflow, a group
	// containing a map member carries the max-width composite here — the
	// conservative base every unresolved future composites through.
	Profiles []*FunctionProfile
	// Shaped holds the width-variant composites of a dynamic workflow's
	// map groups: Shaped[g][shape] is group g's composite when its map
	// member resolved to the width the shape key names ("w=3"). The
	// variant at the map's maximum width is Profiles[g] itself (an equal
	// copy in a parsed set). Nil for static workflows.
	Shaped map[int]map[string]*FunctionProfile
}

// At returns the group-i profile.
func (s *Set) At(i int) *FunctionProfile { return s.Profiles[i] }

// Len reports the number of decision groups.
func (s *Set) Len() int { return len(s.Profiles) }

// ConeProfiles returns the profile sequence of group `from`'s descendant
// cone, layer by layer: element 0 is the group's own profile, and each
// later element covers one cone layer (the pointwise max when a layer
// holds several groups — conservative in the same direction as the
// profiler's round-up). For a chain or series-parallel workflow this is
// exactly the profile suffix from..; the sequential composition of the
// returned profiles upper-bounds the cone's max-over-paths latency, which
// is the shape Algorithm 1's budget split consumes.
func (s *Set) ConeProfiles(from int) ([]*FunctionProfile, error) {
	if from < 0 || from >= len(s.Profiles) {
		return nil, fmt.Errorf("profile: cone start %d out of range [0, %d)", from, len(s.Profiles))
	}
	layers := s.Workflow.GroupConeLayers(from)
	out := make([]*FunctionProfile, 0, len(layers))
	for _, layer := range layers {
		if len(layer) == 1 {
			out = append(out, s.Profiles[layer[0]])
			continue
		}
		fps := make([]*FunctionProfile, len(layer))
		for i, g := range layer {
			fps[i] = s.Profiles[g]
		}
		max, err := maxProfiles(fps)
		if err != nil {
			return nil, err
		}
		out = append(out, max)
	}
	return out, nil
}

// BudgetRangeMs returns the paper's Eq. 3 exploration bounds for the
// sub-workflow headed by group `from` (its descendant cone):
//
//	Tmin = sum_i L_i(pMin, Kmax),  Tmax = sum_i L_i(99, Kmin)
//
// summed over the cone's layers, where pMin is the lowest profiled
// percentile. For a chain this is the classic suffix range.
func (s *Set) BudgetRangeMs(from int) (int, int) {
	seq, err := s.ConeProfiles(from)
	if err != nil {
		// Callers index groups they obtained from this set; out of range
		// is a bug, and grid mismatches are rejected at construction.
		panic(err)
	}
	tmin, tmax := 0, 0
	for _, fp := range seq {
		pMin := fp.Percentiles[0]
		tmin += fp.LMs(pMin, fp.Grid.Max)
		tmax += fp.LMs(99, fp.Grid.Min)
	}
	return tmin, tmax
}

// maxProfiles fuses profiles into their pointwise maximum: the latency a
// join observes when every member must finish, under the comonotonic
// coupling the workload's stage correlation leans toward. Grids and
// percentile sets must match.
func maxProfiles(fps []*FunctionProfile) (*FunctionProfile, error) {
	base := fps[0]
	name := "max"
	for _, fp := range fps {
		if fp.Grid != base.Grid {
			return nil, fmt.Errorf("profile: max over mismatched grids (%s vs %s)", fp.Function, base.Function)
		}
		if len(fp.Percentiles) != len(base.Percentiles) {
			return nil, fmt.Errorf("profile: max over mismatched percentile sets (%s vs %s)", fp.Function, base.Function)
		}
		for i := range fp.Percentiles {
			if fp.Percentiles[i] != base.Percentiles[i] {
				return nil, fmt.Errorf("profile: max over mismatched percentile sets (%s vs %s)", fp.Function, base.Function)
			}
		}
		name += "+" + fp.Function
	}
	lat := make([][]int, len(base.Percentiles))
	for pi := range lat {
		lat[pi] = make([]int, base.Grid.Len())
		for ki := range lat[pi] {
			worst := 0
			for _, fp := range fps {
				if v := fp.LatencyMs[pi][ki]; v > worst {
					worst = v
				}
			}
			lat[pi][ki] = worst
		}
	}
	return NewFunctionProfile(name, base.Batch, base.Grid, base.Percentiles, lat)
}

// Profiler collects execution-time distributions by exercising the latency
// models under the contention mix the platform will produce at serving
// time. This is the developer-side offline component: in the paper it runs
// the real functions on the developer's cluster; here it samples the
// calibrated models. Every profile spans DefaultGrid at
// DefaultPercentiles.
type Profiler struct {
	// Functions resolves function names.
	Functions map[string]*perfmodel.Function
	// SamplesPerConfig is the number of invocations per (k, batch) cell.
	SamplesPerConfig int
	// Colocation and Interference reproduce serving-time contention.
	Colocation   *interfere.CountSampler
	Interference *interfere.Model
	// Seed roots the profiling streams.
	Seed uint64

	// workers bounds the goroutines a profile's grid levels are spread
	// over: GOMAXPROCS when zero. Every level draws from its own stream,
	// so only tests set it, and the profiles never depend on it.
	workers int
}

// NewProfiler builds a profiler with validated configuration.
func NewProfiler(fns map[string]*perfmodel.Function, coloc *interfere.CountSampler, im *interfere.Model, seed uint64) (*Profiler, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("profile: profiler needs functions")
	}
	if coloc == nil {
		return nil, fmt.Errorf("profile: profiler needs a co-location sampler")
	}
	return &Profiler{
		Functions:        fns,
		SamplesPerConfig: 2000,
		Colocation:       coloc,
		Interference:     im,
		Seed:             seed,
	}, nil
}

// ProfileWorkflow profiles every decision group of a workflow DAG with one
// profileGroup pass each. The passes differ only in their stream label
// and in whether they keep raw samples:
//
//   - a static chain's groups are its functions, drawn under "profile/"
//     with their raw samples kept, so the ORION baseline stays available;
//   - a group whose map member resolves to up to W > 1 replicas is drawn
//     under "mapshape/" into W width variants: the widest is the group's
//     conservative base profile, every unresolved future composites
//     through it, and all W go to Set.Shaped under their shape keys
//     (choice and await annotations need no variants: an unchosen
//     branch's groups simply never decide);
//   - every other group is drawn under "parallel/" as the max-over-members
//     composite its implicit join observes.
func (p *Profiler) ProfileWorkflow(w *workflow.Workflow, batch int) (*Set, error) {
	if w == nil {
		return nil, fmt.Errorf("profile: nil workflow")
	}
	chain := !w.IsDynamic() && w.IsChain()
	set := &Set{Workflow: w, Batch: batch}
	for i, g := range w.DecisionGroups() {
		rep, width := groupMap(w, g)
		kind := "mapshape"
		if width == 1 {
			kind = "parallel"
			if chain {
				kind = "profile"
			}
		}
		variants, err := p.profileGroup(g, rep, width, batch, kind, chain)
		if err != nil {
			if chain {
				// A chain's group is one function, which the error names.
				return nil, err
			}
			return nil, fmt.Errorf("profile: group %d: %w", i, err)
		}
		set.Profiles = append(set.Profiles, variants[width-1])
		if width == 1 {
			continue
		}
		if set.Shaped == nil {
			set.Shaped = map[int]map[string]*FunctionProfile{}
		}
		shapes := make(map[string]*FunctionProfile, width)
		for v, fp := range variants {
			shapes[workflow.ShapeKey(v+1)] = fp
		}
		set.Shaped[i] = shapes
	}
	return set, nil
}

// groupMap returns which member of group g repeats in its profiling pass,
// and how often: the group's map member (the workflow allows at most one
// per group) at the map's maximum width, or, without one or when it
// resolves to a single replica, its last member once.
func groupMap(w *workflow.Workflow, g workflow.Group) (rep, width int) {
	rep, width = len(g.Nodes)-1, 1
	for j, n := range g.Nodes {
		if d, ok := w.Dynamic(n.Name); ok && d.Map != nil {
			rep, width = j, d.Map.MaxWidth
		}
	}
	if width == 1 {
		rep = len(g.Nodes) - 1
	}
	return rep, width
}

// profileGroup measures one decision group at one batch size across the
// grid in a single Monte-Carlo pass. Per allocation k, each draw runs
// every member once at k, except member rep, which then runs width times;
// variant v is the running max after replica v+1, so variant 0 of a group
// drawn at width 1 is its join latency, and the variants of a map are
// monotone in width by construction (a prefix max can only grow). Level k
// draws from the stream kind/<name>[/<map step>]/b<batch>/k<k>, split
// from the profiler's seed, so a profile depends on its label alone and
// never on how the levels are spread over workers. With keep, each
// variant retains its raw sample per level for distribution-aware
// consumers. The returned slice holds widths 1..width in order.
func (p *Profiler) profileGroup(g workflow.Group, rep, width, batch int, kind string, keep bool) ([]*FunctionProfile, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("profile: empty decision group")
	}
	if p.SamplesPerConfig < 100 {
		return nil, fmt.Errorf("profile: need at least 100 samples per config, have %d", p.SamplesPerConfig)
	}
	var repFn *perfmodel.Function
	others := make([]*perfmodel.Function, 0, len(g.Nodes)-1)
	for j, n := range g.Nodes {
		fn, ok := p.Functions[n.Function]
		if !ok {
			return nil, fmt.Errorf("profile: unknown function %q", n.Function)
		}
		if !fn.SupportsBatch(batch) {
			return nil, fmt.Errorf("profile: function %s does not support batch %d", n.Function, batch)
		}
		if j == rep {
			repFn = fn
		} else {
			others = append(others, fn)
		}
	}
	name := GroupProfileName(g.Nodes)
	label := kind + "/" + name
	if width > 1 {
		label += "/" + g.Nodes[rep].Name
	}
	label += "/b" + strconv.Itoa(batch) + "/k"
	grid, pcts := DefaultGrid(), DefaultPercentiles()
	levels := grid.Levels()
	n := p.SamplesPerConfig
	// lat[v][pi][ki] is variant v's L(pcts[pi], levels[ki]); samples[ki*width+v]
	// is variant v's raw sample at level ki.
	lat := make([][][]int, width)
	for v := range lat {
		lat[v] = make([][]int, len(pcts))
		for pi := range lat[v] {
			lat[v][pi] = make([]int, len(levels))
		}
	}
	samples := make([]stats.Sample, len(levels)*width)
	root := rng.New(p.Seed)
	chunk.Run(len(levels), 1, p.workers, func(lo, hi int) {
		stream := new(rng.Stream)
		for ki := lo; ki < hi; ki++ {
			k := levels[ki]
			root.SplitInto(stream, label+strconv.Itoa(k))
			level := samples[ki*width : (ki+1)*width]
			xs := make([]float64, width*n)
			for v := range level {
				level[v] = *stats.NewSample(xs[v*n : v*n : (v+1)*n])
			}
			for range n {
				var worst time.Duration
				for _, fn := range others {
					coloc := p.Colocation.Sample(stream)
					d := fn.NewDraw(stream, batch, coloc, p.Interference)
					worst = max(worst, fn.Latency(d, batch, k))
				}
				for v := range level {
					coloc := p.Colocation.Sample(stream)
					d := repFn.NewDraw(stream, batch, coloc, p.Interference)
					worst = max(worst, repFn.Latency(d, batch, k))
					level[v].AddDuration(worst)
				}
			}
			for v := range level {
				for pi, pct := range pcts {
					// Round latencies up: the synthesizer must never be
					// optimistic about how fast a function runs.
					lat[v][pi][ki] = int(level[v].Percentile(float64(pct))) + 1
				}
			}
		}
	})
	out := make([]*FunctionProfile, width)
	for v := range out {
		vname := name
		if width > 1 {
			vname += "@" + workflow.ShapeKey(v+1)
		}
		fp, err := NewFunctionProfile(vname, batch, grid, pcts, lat[v])
		if err != nil {
			return nil, err
		}
		enforceMonotone(fp)
		if keep {
			fp.samples = make([]*stats.Sample, len(levels))
			for ki := range levels {
				fp.samples[ki] = &samples[ki*width+v]
			}
		}
		out[v] = fp
	}
	return out, nil
}

// enforceMonotone irons out sampling noise so that L is non-increasing in k
// and non-decreasing in p — properties the true distribution has and the
// synthesizer's pruning relies on.
func enforceMonotone(fp *FunctionProfile) {
	for pi := range fp.LatencyMs {
		row := fp.LatencyMs[pi]
		for ki := len(row) - 2; ki >= 0; ki-- {
			if row[ki] < row[ki+1] {
				row[ki] = row[ki+1]
			}
		}
	}
	for pi := 1; pi < len(fp.LatencyMs); pi++ {
		for ki := range fp.LatencyMs[pi] {
			if fp.LatencyMs[pi][ki] < fp.LatencyMs[pi-1][ki] {
				fp.LatencyMs[pi][ki] = fp.LatencyMs[pi-1][ki]
			}
		}
	}
}

// GroupProfileName is the composite profile name of a decision group: the
// function name for a single member, "par(N)+f1+...+fN" for a fork.
func GroupProfileName(nodes []workflow.Node) string {
	if len(nodes) == 1 {
		return nodes[0].Function
	}
	name := fmt.Sprintf("par(%d)", len(nodes))
	for _, n := range nodes {
		name += "+" + n.Function
	}
	return name
}
