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
	"sort"
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

// Snap rounds an arbitrary allocation up to the nearest grid level,
// clamping to the grid bounds.
func (g Grid) Snap(k int) int {
	if k <= g.Min {
		return g.Min
	}
	if k >= g.Max {
		return g.Max
	}
	over := (k - g.Min) % g.Step
	if over == 0 {
		return k
	}
	return k + g.Step - over
}

// DefaultPercentiles returns the paper's profiling percentiles: 1% to 99%
// with a step of 5%, with the P99 anchor (1, 5, 10, ..., 95, 99).
func DefaultPercentiles() []int {
	out := []int{1}
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

// HasPercentile reports whether p is on the profile's percentile grid.
func (fp *FunctionProfile) HasPercentile(p int) bool {
	_, ok := fp.row(p)
	return ok
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

// Sample returns the raw latency sample at allocation k, or nil if the
// profile was deserialized without samples.
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
	// variant at the map's maximum width is Profiles[g] itself. Nil for
	// static workflows.
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

// ConeProfilesShaped is ConeProfiles with the cone head swapped for the
// group's shape variant: element 0 becomes Shaped[from][shape], and every
// downstream layer keeps its conservative base composite — futures not
// yet resolved at the decision instant stay worst-case. An unknown shape
// (or a static workflow) returns the base cone unchanged.
func (s *Set) ConeProfilesShaped(from int, shape string) ([]*FunctionProfile, error) {
	seq, err := s.ConeProfiles(from)
	if err != nil {
		return nil, err
	}
	variant, ok := s.Shaped[from][shape]
	if !ok {
		return seq, nil
	}
	seq[0] = variant
	return seq, nil
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
// calibrated models.
type Profiler struct {
	// Functions resolves function names.
	Functions map[string]*perfmodel.Function
	// SamplesPerConfig is the number of invocations per (k, batch) cell.
	SamplesPerConfig int
	// Grid is the allocation grid.
	Grid Grid
	// Percentiles is the percentile grid (must include 99).
	Percentiles []int
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
	p := &Profiler{
		Functions:        fns,
		SamplesPerConfig: 2000,
		Grid:             DefaultGrid(),
		Percentiles:      DefaultPercentiles(),
		Colocation:       coloc,
		Interference:     im,
		Seed:             seed,
	}
	if err := p.Grid.Validate(); err != nil {
		return nil, err
	}
	if err := validatePercentiles(p.Percentiles); err != nil {
		return nil, err
	}
	return p, nil
}

// ProfileFunction measures one function at one batch size across the grid.
func (p *Profiler) ProfileFunction(name string, batch int) (*FunctionProfile, error) {
	fn, ok := p.Functions[name]
	if !ok {
		return nil, fmt.Errorf("profile: unknown function %q", name)
	}
	if !fn.SupportsBatch(batch) {
		return nil, fmt.Errorf("profile: function %s does not support batch %d", name, batch)
	}
	if p.SamplesPerConfig < 100 {
		return nil, fmt.Errorf("profile: need at least 100 samples per config, have %d", p.SamplesPerConfig)
	}
	levels := p.Grid.Levels()
	fp := &FunctionProfile{
		Function:    name,
		Batch:       batch,
		Grid:        p.Grid,
		Percentiles: append([]int(nil), p.Percentiles...),
		LatencyMs:   make([][]int, len(p.Percentiles)),
		samples:     make([]*stats.Sample, len(levels)),
	}
	for i := range fp.LatencyMs {
		fp.LatencyMs[i] = make([]int, len(levels))
	}
	p.eachLevel(fmt.Sprintf("profile/%s/b%d", name, batch), func(ki, k int, stream *rng.Stream) {
		sample := stats.NewSample(make([]float64, 0, p.SamplesPerConfig))
		for i := 0; i < p.SamplesPerConfig; i++ {
			coloc := p.Colocation.Sample(stream)
			draw := fn.NewDraw(stream, batch, coloc, p.Interference)
			sample.AddDuration(fn.Latency(draw, k))
		}
		fp.samples[ki] = sample
		for pi, pct := range p.Percentiles {
			// Round latencies up: the synthesizer must never be optimistic
			// about how fast a function runs.
			ms := sample.Percentile(float64(pct))
			fp.LatencyMs[pi][ki] = int(ms) + 1
		}
	})
	if err := fp.init(); err != nil {
		return nil, err
	}
	enforceMonotone(fp)
	return fp, nil
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

// eachLevel calls level(ki, k, stream) for every grid level k at index
// ki, with stream seeded for that level alone (prefix + "/k<k>" split
// from the profiler's seed). Contiguous runs of levels are spread over
// the profiler's workers, each reseeding one stream of its own; since a
// level's draws depend on its label alone, so does the profile.
func (p *Profiler) eachLevel(prefix string, level func(ki, k int, stream *rng.Stream)) {
	root := rng.New(p.Seed)
	levels := p.Grid.Levels()
	chunk.Run(len(levels), 1, p.workers, func(lo, hi int) {
		stream := new(rng.Stream)
		for ki := lo; ki < hi; ki++ {
			root.SplitInto(stream, prefix+"/k"+strconv.Itoa(levels[ki]))
			level(ki, levels[ki], stream)
		}
	})
}

// ProfileWorkflow profiles every decision group of a workflow DAG. Chains
// run the per-function profiler (raw samples retained, so the ORION
// baseline stays available); any other DAG profiles each group as a
// max-over-members Monte-Carlo composite — the latency its implicit join
// observes — exactly as the series-parallel reduction always has.
func (p *Profiler) ProfileWorkflow(w *workflow.Workflow, batch int) (*Set, error) {
	if w == nil {
		return nil, fmt.Errorf("profile: nil workflow")
	}
	set := &Set{Workflow: w, Batch: batch}
	if w.IsDynamic() {
		return p.profileDynamic(set, w, batch)
	}
	if w.IsChain() {
		for _, n := range w.TopoOrder() {
			fp, err := p.ProfileFunction(n.Function, batch)
			if err != nil {
				return nil, err
			}
			set.Profiles = append(set.Profiles, fp)
		}
		return set, nil
	}
	for i, g := range w.DecisionGroups() {
		fp, err := p.ProfileGroup(g, batch)
		if err != nil {
			return nil, fmt.Errorf("profile: group %d: %w", i, err)
		}
		set.Profiles = append(set.Profiles, fp)
	}
	return set, nil
}

// profileDynamic profiles a dynamic workflow's groups: each resolvable
// shape of a map group gets its own width-variant composite (the base is
// the max-width variant, conservative), and every other group profiles
// exactly as a static group does. Choice and await annotations need no
// variants: an unchosen branch's groups simply never decide, and choice
// branch-specificity is already inherent in the per-group descendant
// cones.
func (p *Profiler) profileDynamic(set *Set, w *workflow.Workflow, batch int) (*Set, error) {
	for i, g := range w.DecisionGroups() {
		mapStep, maxWidth := "", 1
		for _, n := range g.Nodes {
			if d, ok := w.Dynamic(n.Name); ok && d.Map != nil {
				mapStep, maxWidth = n.Name, d.Map.MaxWidth
			}
		}
		if maxWidth <= 1 {
			fp, err := p.ProfileGroup(g, batch)
			if err != nil {
				return nil, fmt.Errorf("profile: group %d: %w", i, err)
			}
			set.Profiles = append(set.Profiles, fp)
			continue
		}
		variants, err := p.ProfileGroupMap(g, mapStep, maxWidth, batch)
		if err != nil {
			return nil, fmt.Errorf("profile: group %d: %w", i, err)
		}
		set.Profiles = append(set.Profiles, variants[maxWidth-1])
		if set.Shaped == nil {
			set.Shaped = map[int]map[string]*FunctionProfile{}
		}
		shapes := make(map[string]*FunctionProfile, maxWidth)
		for v := 1; v <= maxWidth; v++ {
			shapes[workflow.ShapeKey(v)] = variants[v-1]
		}
		set.Shaped[i] = shapes
	}
	return set, nil
}

// ProfileGroupMap measures one decision group's composite latency for
// every resolvable width of its map member in a single Monte-Carlo pass:
// each sample draws the non-map members once, then draws maxWidth i.i.d.
// replicas of the map member and records the running (prefix) max after
// each one. Variant v is therefore the group's join latency when the map
// resolved to v replicas, the variants are monotone in width by
// construction (a prefix max can only grow), and the max-width variant is
// the conservative base profile a shape-blind planner uses. The returned
// slice holds widths 1..maxWidth in order.
func (p *Profiler) ProfileGroupMap(g workflow.Group, mapStep string, maxWidth, batch int) ([]*FunctionProfile, error) {
	if maxWidth < 1 {
		return nil, fmt.Errorf("profile: map width %d invalid", maxWidth)
	}
	if p.SamplesPerConfig < 100 {
		return nil, fmt.Errorf("profile: need at least 100 samples per config, have %d", p.SamplesPerConfig)
	}
	var mapFn *perfmodel.Function
	others := make([]*perfmodel.Function, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		fn, ok := p.Functions[n.Function]
		if !ok {
			return nil, fmt.Errorf("profile: unknown function %q", n.Function)
		}
		if !fn.SupportsBatch(batch) {
			return nil, fmt.Errorf("profile: function %s does not support batch %d", n.Function, batch)
		}
		if n.Name == mapStep {
			mapFn = fn
			continue
		}
		others = append(others, fn)
	}
	if mapFn == nil {
		return nil, fmt.Errorf("profile: map step %q not in group", mapStep)
	}
	name := GroupProfileName(g.Nodes)
	levels := p.Grid.Levels()
	lat := make([][][]int, maxWidth)
	for v := range lat {
		lat[v] = make([][]int, len(p.Percentiles))
		for pi := range lat[v] {
			lat[v][pi] = make([]int, len(levels))
		}
	}
	p.eachLevel(fmt.Sprintf("mapshape/%s/%s/b%d", name, mapStep, batch), func(ki, k int, stream *rng.Stream) {
		samples := make([]*stats.Sample, maxWidth)
		for v := range samples {
			samples[v] = stats.NewSample(make([]float64, 0, p.SamplesPerConfig))
		}
		for i := 0; i < p.SamplesPerConfig; i++ {
			var worst time.Duration
			for _, fn := range others {
				coloc := p.Colocation.Sample(stream)
				d := fn.NewDraw(stream, batch, coloc, p.Interference)
				if l := fn.Latency(d, k); l > worst {
					worst = l
				}
			}
			for v := 0; v < maxWidth; v++ {
				coloc := p.Colocation.Sample(stream)
				d := mapFn.NewDraw(stream, batch, coloc, p.Interference)
				if l := mapFn.Latency(d, k); l > worst {
					worst = l
				}
				samples[v].AddDuration(worst)
			}
		}
		for v := 0; v < maxWidth; v++ {
			for pi, pct := range p.Percentiles {
				lat[v][pi][ki] = int(samples[v].Percentile(float64(pct))) + 1
			}
		}
	})
	out := make([]*FunctionProfile, maxWidth)
	for v := 0; v < maxWidth; v++ {
		fp, err := NewFunctionProfile(fmt.Sprintf("%s@w=%d", name, v+1), batch, p.Grid, p.Percentiles, lat[v])
		if err != nil {
			return nil, err
		}
		enforceMonotone(fp)
		out[v] = fp
	}
	return out, nil
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

// ProfileGroup measures one decision group's composite latency at one
// batch size: per allocation k, every member runs at k and the group's
// implicit join completes at the slowest member. The profiling stream is
// keyed under "parallel/" — the series-parallel reduction's namespace —
// so fork-join workflows profile identically through either entry point.
func (p *Profiler) ProfileGroup(g workflow.Group, batch int) (*FunctionProfile, error) {
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("profile: empty decision group")
	}
	if p.SamplesPerConfig < 100 {
		return nil, fmt.Errorf("profile: need at least 100 samples per config, have %d", p.SamplesPerConfig)
	}
	fns := make([]*perfmodel.Function, len(g.Nodes))
	for i, n := range g.Nodes {
		fn, ok := p.Functions[n.Function]
		if !ok {
			return nil, fmt.Errorf("profile: unknown function %q", n.Function)
		}
		if !fn.SupportsBatch(batch) {
			return nil, fmt.Errorf("profile: function %s does not support batch %d", n.Function, batch)
		}
		fns[i] = fn
	}
	name := GroupProfileName(g.Nodes)
	levels := p.Grid.Levels()
	lat := make([][]int, len(p.Percentiles))
	for i := range lat {
		lat[i] = make([]int, len(levels))
	}
	p.eachLevel(fmt.Sprintf("parallel/%s/b%d", name, batch), func(ki, k int, stream *rng.Stream) {
		sample := stats.NewSample(make([]float64, 0, p.SamplesPerConfig))
		for i := 0; i < p.SamplesPerConfig; i++ {
			var worst time.Duration
			for _, fn := range fns {
				coloc := p.Colocation.Sample(stream)
				d := fn.NewDraw(stream, batch, coloc, p.Interference)
				if l := fn.Latency(d, k); l > worst {
					worst = l
				}
			}
			sample.AddDuration(worst)
		}
		for pi, pct := range p.Percentiles {
			lat[pi][ki] = int(sample.Percentile(float64(pct))) + 1
		}
	})
	fp, err := NewFunctionProfile(name, batch, p.Grid, p.Percentiles, lat)
	if err != nil {
		return nil, err
	}
	enforceMonotone(fp)
	return fp, nil
}

// SortedPercentiles returns a copy of ps sorted ascending (helper for
// consumers assembling custom grids).
func SortedPercentiles(ps []int) []int {
	out := append([]int(nil), ps...)
	sort.Ints(out)
	return out
}
