// Package platform simulates the serverless provider's serving plane: it
// admits workflow requests, drives their node-by-node execution over the
// cluster substrate, and consults a pluggable Allocator for the millicore
// allocation of every decision group.
//
// Workflows are arbitrary DAGs. The engine is a per-node readiness
// scheduler: a node starts the moment all its predecessors have completed,
// and joins happen implicitly at nodes with in-degree > 1 — no stage
// barrier exists. Nodes sharing an identical predecessor set (a decision
// group, see workflow.DecisionGroups) become ready at the same instant and
// share one allocation decision, made against the critical-path remaining
// budget (SLO − elapsed); each member node acquires its own pod —
// independently subject to warm-pool hits, cold starts, and capacity
// parking — and runs concurrently on the simulated clock. Chains (every
// group one node) and series-parallel workflows (groups are exactly the
// fork-join stages) are special cases of the same engine, reproduced
// byte for byte.
//
// The Allocator interface is the single point where serving systems differ:
//
//   - early-binding baselines (GrandSLAM, GrandSLAM+, ORION) return fixed
//     per-group sizes decided at deployment;
//   - Janus's adapter derives the remaining time budget when a function
//     finishes and looks up the developer's condensed hints table;
//   - the clairvoyant Optimal oracle inspects the request's pre-sampled
//     draws.
//
// Requests carry pre-sampled randomness (working set, interference,
// jitter): every system faces the identical sequence of runtime conditions,
// which is the paired-comparison setup the paper's normalized results rely
// on.
//
// The plane is multi-tenant: RunMixed merges several workloads — each
// paired with its own Allocator — into one discrete-event run on one
// shared cluster, so tenants contend for warm pods and node millicores as
// the paper's provider-side deployment does. Placement decides capacity,
// parking and cold starts; every execution's interference slowdown is its
// request's pre-sampled draw, wherever its pod lands. Run is the
// single-tenant special case.
package platform

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"janus/internal/chunk"
	"janus/internal/cluster"
	"janus/internal/interfere"
	"janus/internal/obs"
	"janus/internal/perfmodel"
	"janus/internal/rng"
	"janus/internal/simclock"
	"janus/internal/workflow"
)

// Request is one workflow execution with pre-sampled runtime conditions.
type Request struct {
	// ID is unique within a workload.
	ID int
	// Workflow is the application being served.
	Workflow *workflow.Workflow
	// Draws holds one pre-sampled draw per workflow node in flat node
	// order: the members of decision group 0, then group 1, and so on
	// (workflow.DecisionGroups), so member b of group g is
	// Draws[n_0+...+n_{g-1}+b], where n_i counts group i's members.
	Draws []perfmodel.Draw
	// Arrival is the request's admission time.
	Arrival time.Duration
	// Batch is the batch size (the paper's "concurrency") the request's
	// function executions run with: the one batch a request runs at. Its
	// draws do not repeat it; every execution is priced with
	// Function.Latency at this batch, so a run rejects a request whose
	// Batch is not the batch its draws were drawn at, or, for a request
	// built by hand, one that some node's function cannot run.
	Batch int
	// Dyn carries the pre-sampled dynamic resolutions (chosen branches,
	// map widths, retry outcomes and their extra draws) for requests of a
	// dynamic workflow; nil for static workflows. Resolving from the
	// request's seeded stream — not at scheduling time — is what keeps
	// dynamic runs byte-identical across parallelism and lets every
	// serving system face the same resolved shapes.
	Dyn *DynDraws
	// shape is what GenerateWorkload drew Draws (and Dyn) for, shared by
	// the workload's requests, so a run can reject a request re-pointed
	// at a workflow of another shape or a batch of another size; nil for
	// a request built by hand.
	shape *drawShape
}

// drawShape is what a workload's draws were drawn for, stored once for
// all its requests: the member count of each decision group of its
// workflow, in group order, the function of each node, in flat order,
// the batch size every draw was taken at, and, for a dynamic workflow,
// the annotated steps its resolutions' records stand for, in
// Workflow.DynamicSteps order.
type drawShape struct {
	sizes []int
	fns   []string
	batch int
	steps []string
}

// DynDraws is a request's pre-sampled dynamic-shape resolution: one
// record per annotated step, in the order of its shape's step names
// (Workflow.DynamicSteps order), with every replica's failed-attempt
// count and every extra execution's draw in two flat slices.
// GenerateWorkload builds it; callers read it through the accessors,
// which take a step name. The zero value resolves no step, so serving
// it for a dynamic workflow fails validation.
type DynDraws struct {
	// shape names the records' steps; it is the workload's draw shape,
	// shared by every request's resolution.
	shape *drawShape
	steps []dynStep
	// attempts holds, record by record, the failed attempts preceding
	// each replica's success: a record's replicas are
	// attempts[att : att+reps]. A count is at most
	// workflow.MaxRetryBound.
	attempts []uint8
	// draws holds the draws of every map replica and retry attempt,
	// record by record, replica by replica, attempt by attempt, starting
	// at each record's draw offset.
	draws []perfmodel.Draw
}

// dynStep is one annotated step's resolution, in 8 bytes: the step it
// resolves is named once, by the position of its record, in the shape's
// step names. GenerateWorkload rejects a workflow whose resolutions
// would not fit these fields (maxDynChoices, maxDynDraws).
type dynStep struct {
	// choice is a choice step's taken successor edge, in
	// edge-declaration order; -1 for every other step.
	choice int16
	// width is a map step's fan-out width in [1, MaxWidth] — drawn "at
	// the fork's readiness instant" in paper terms; pre-sampling it is
	// observationally identical because the value is revealed to the
	// allocator only at that instant. 0 for every other step.
	width uint8
	// reps counts the replicas that carry attempt counts and draws: the
	// width of a map step, 1 for a retry-only step, 0 for choice and
	// await-only steps, which execute off their base Draws entry.
	reps uint8
	// att and draw are the record's first indexes into attempts and
	// draws.
	att, draw uint16
}

// maxDynChoices is the most successors a choice step of a dynamic
// workflow may have, and maxDynDraws the most draws one request's
// resolution may carry: dynStep stores a choice in 16 signed bits and
// its offsets in 16 unsigned bits. Every replica's attempt count comes
// with at least one draw, so the draw bound bounds the counts too.
const (
	maxDynChoices = math.MaxInt16
	maxDynDraws   = math.MaxUint16
)

func (d *DynDraws) step(name string) *dynStep {
	if d.shape == nil {
		return nil
	}
	for i, step := range d.shape.steps {
		if step == name {
			return &d.steps[i]
		}
	}
	return nil
}

// Choice returns the index of a choice step's taken successor edge (in
// edge-declaration order), or -1 if step is not a resolved choice step.
func (d *DynDraws) Choice(step string) int {
	if s := d.step(step); s != nil {
		return int(s.choice)
	}
	return -1
}

// Width returns a map step's resolved fan-out width in [1, MaxWidth], or
// 0 if step is not a resolved map step.
func (d *DynDraws) Width(step string) int {
	if s := d.step(step); s != nil {
		return int(s.width)
	}
	return 0
}

// Attempts returns the number of failed attempts preceding each
// replica's success of a map or retry step, indexed by replica (one
// entry for a retry-only step, zeros for a map without a retry spec), or
// nil for any other step. The slice is a fresh copy: the resolution
// stores the counts narrower than int.
func (d *DynDraws) Attempts(step string) []int {
	s := d.step(step)
	if s == nil || s.reps == 0 {
		return nil
	}
	out := make([]int, s.reps)
	for i, a := range d.replicaAttempts(s) {
		out[i] = int(a)
	}
	return out
}

// replicaAttempts returns a record's attempt counts, one per replica.
func (d *DynDraws) replicaAttempts(s *dynStep) []uint8 {
	return d.attempts[s.att : int(s.att)+int(s.reps)]
}

// NodeDraws returns the draws of one replica of a map or retry step,
// indexed by attempt, or nil when the step has no such replica. The
// slice is shared; do not modify it.
func (d *DynDraws) NodeDraws(step string, replica int) []perfmodel.Draw {
	if s := d.step(step); s != nil && replica >= 0 && replica < int(s.reps) {
		return d.replicaDraws(s, replica)
	}
	return nil
}

// replicaDraws returns one replica's draws, indexed by attempt: the
// replica's block follows the blocks of the record's earlier replicas.
func (d *DynDraws) replicaDraws(s *dynStep, replica int) []perfmodel.Draw {
	off := int(s.draw)
	for _, a := range d.attempts[s.att : int(s.att)+replica] {
		off += int(a) + 1
	}
	end := off + int(d.attempts[int(s.att)+replica]) + 1
	return d.draws[off:end:end]
}

// Allocator decides the millicore allocation for a request's decision
// group. One decision is made per group, at the instant the group's
// predecessors have all completed; every member node runs at the decided
// size (a group with B members consumes B times the decision). For chain
// workflows the group index is the classic stage index.
type Allocator interface {
	// Name identifies the serving system in experiment output.
	Name() string
	// Allocate returns the allocation for decision group `group` of req,
	// given the critical-path remaining time budget until the SLO deadline
	// (SLO − elapsed; the group's hints table resolves the budget over its
	// descendant cone), plus whether the decision was a (hints-table) hit.
	// Systems without a hints table report true.
	Allocate(req *Request, group int, remaining time.Duration) (millicores int, hit bool)
}

// ShapeAwareAllocator is an Allocator that can exploit the parts of a
// dynamic workflow's shape already resolved at a decision instant. The
// serving plane calls AllocateShaped for every decision of a dynamic
// workflow, passing the resolved-shape key of the decision group ("w=3"
// when the group's map member resolved to width 3; "" when nothing in
// the group resolved). Allocators fall back to their conservative
// worst-case table when they have no variant for the key — plain
// Allocators never see shapes at all, which is exactly the static
// worst-case planning the trigger experiment compares against.
type ShapeAwareAllocator interface {
	Allocator
	AllocateShaped(req *Request, group int, shape string, remaining time.Duration) (millicores int, hit bool)
}

// Trigger is one external event on a replay run's virtual clock — a
// timer or stream event addressed to a tenant's request. With Step
// empty it starts the request: admission happens at At instead of the
// request's Arrival instant (the request must not also arrive on its
// own). With Step naming an await node it resumes the request: the
// await step's allocation decision and launch happen at its actual
// post-trigger readiness instant. A trigger that fires before its
// await step is ready latches, so early events are never lost.
type Trigger struct {
	// At is the fire instant on the virtual clock.
	At time.Duration
	// Tenant names the workload the trigger addresses ("" in a
	// single-tenant run).
	Tenant string
	// Request is the addressed request's ID within the tenant.
	Request int
	// Step is the await step to resume; empty means the trigger starts
	// the request.
	Step string
}

// StageTrace records one executed node of a request in 32 pointer-free
// bytes: half a cache line, in an arena the collector never scans. Stage
// is the node's decision-group index and Branch its position within the
// group, so the pair names the workflow node:
// w.DecisionGroups()[Stage].Nodes[Branch] carries its function and step
// name. For chains and series-parallel workflows they are exactly the
// stage-indexed engine's stage/branch coordinates.
//
// The record stores neither the pod's startup nor the node's latency:
// startup is the executor's WarmStartup or ColdStartup, as Cold says,
// and a node completes exactly DecisionOverhead + startup + latency after
// it started, so ExecutorConfig.StageTimes recovers both.
type StageTrace struct {
	Start time.Duration
	End   time.Duration
	// Node is the cluster node the pod ran on — the placement the
	// configured cluster policy chose.
	Node int32
	// Millicores is the pod's allocation; the scheduler accepts only
	// allocations in (0, MaxInt32].
	Millicores int32
	// Stage and Branch fit every node: a run rejects a workflow with more
	// than 65,536 decision groups, or more members in one group.
	Stage  uint16
	Branch uint16
	// Replica and Attempt locate the execution within a dynamic node:
	// the map replica index (below workflow.MaxMapWidth) and the 0-based
	// retry attempt (at most workflow.MaxRetryBound). Both are 0 for
	// static workflows and for dynamic nodes without map/retry.
	Replica uint8
	Attempt uint8
	Cold    bool
	Hit     bool
}

// maxCoord is the most decision groups a plan holds, and the most members
// one group holds: StageTrace stores a node's coordinates in 16 bits.
const maxCoord = math.MaxUint16 + 1

// Trace records one served request in 96 bytes. It names neither its
// tenant nor its serving system: RunMixed returns each tenant's traces
// under the tenant's name, and the system is the tenant's
// Allocator.Name().
type Trace struct {
	RequestID int
	// Arrival is the instant the request's SLO clock started: its own
	// Arrival, or the fire instant of its start trigger.
	Arrival time.Duration
	Done    time.Duration
	E2E     time.Duration
	SLO     time.Duration
	// Stages holds one entry per executed node, in completion order.
	Stages          []StageTrace
	TotalMillicores int
	// Decisions counts allocation decisions (one per decision group — a
	// fork group's members share one decision).
	Decisions int
	// Misses counts hints-table misses among those decisions.
	Misses int
	// Parked counts the request's pod acquisitions that queued on
	// exhausted cluster capacity — one per queueing episode, however many
	// pod releases the node slept through before fitting.
	Parked int
}

// SLOMet reports whether the request met its latency objective.
func (t *Trace) SLOMet() bool { return t.E2E <= t.SLO }

// WorkloadConfig drives request generation.
type WorkloadConfig struct {
	// Workflow to execute; any DAG is valid (chains and fork-joins
	// included).
	Workflow *workflow.Workflow
	// Functions resolves node function names to latency models.
	Functions map[string]*perfmodel.Function
	// N is the number of requests.
	N int
	// Batch is the batch size for all function executions.
	Batch int
	// ArrivalRatePerSec is the Poisson arrival rate; <= 0 means requests
	// arrive back to back at a fixed small spacing (closed-loop style).
	ArrivalRatePerSec float64
	// Arrivals, when non-empty, supplies explicit admission instants (one
	// request per entry, ascending) instead of the Poisson/closed-loop
	// stream — the seam a non-stationary replay schedule feeds. N, if
	// set, must match; draws are sampled exactly as for generated
	// arrivals, so the same request index faces the same runtime
	// conditions whichever way its admission instant was produced.
	Arrivals []time.Duration
	// Colocation samples the per-stage co-location count baked into each
	// draw (mirroring the contention mix the profiler saw).
	Colocation *interfere.CountSampler
	// Interference converts co-location counts into slowdowns.
	Interference *interfere.Model
	// StageCorrelation in [0, 1] couples runtime conditions across a
	// request's stages with a mixture copula: with this probability all of
	// a request's stages replay the same random stream (heavy inputs stay
	// heavy through the chain, contention persists); otherwise stages draw
	// independently. Production workflows are strongly correlated — a
	// large image yields many objects, a long passage yields a long
	// answer — which is what keeps end-to-end tail estimates honest.
	StageCorrelation float64
	// Seed roots the workload's random streams.
	Seed uint64
}

// workloadGrain is the fewest requests a generation chunk fills: a
// workload of fewer than two grains is drawn on the calling goroutine.
const workloadGrain = 256

// GenerateWorkload materializes the request sequence with pre-sampled
// draws — one per node of every decision group, so forks face
// independently drawn runtime conditions across their members.
//
// Every request draws from its own req/<i> stream, so the requests are
// drawn in contiguous chunks on up to GOMAXPROCS workers, each carving
// its requests, draws and dynamic resolutions from arenas of its own;
// the output is the same at any worker count.
func GenerateWorkload(cfg WorkloadConfig) ([]*Request, error) {
	return generateWorkload(cfg, 0)
}

// generateWorkload is GenerateWorkload on at most workers goroutines
// (GOMAXPROCS when workers <= 0); only tests pass another count.
func generateWorkload(cfg WorkloadConfig, workers int) ([]*Request, error) {
	if cfg.Workflow == nil {
		return nil, fmt.Errorf("platform: workload needs a workflow")
	}
	if len(cfg.Arrivals) > 0 {
		if cfg.N != 0 && cfg.N != len(cfg.Arrivals) {
			return nil, fmt.Errorf("platform: N %d does not match %d explicit arrivals", cfg.N, len(cfg.Arrivals))
		}
		cfg.N = len(cfg.Arrivals)
		prev := time.Duration(-1)
		for i, at := range cfg.Arrivals {
			if at < 0 || at < prev {
				return nil, fmt.Errorf("platform: explicit arrival %d at %v is negative or out of order", i, at)
			}
			prev = at
		}
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("platform: workload needs N > 0, got %d", cfg.N)
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.Colocation == nil {
		return nil, fmt.Errorf("platform: workload needs a co-location sampler")
	}
	if cfg.StageCorrelation < 0 || cfg.StageCorrelation > 1 {
		return nil, fmt.Errorf("platform: StageCorrelation %v outside [0, 1]", cfg.StageCorrelation)
	}
	groups := cfg.Workflow.DecisionGroups()
	g := &generator{cfg: &cfg, shape: &drawShape{
		sizes: make([]int, len(groups)),
		fns:   make([]string, 0, cfg.Workflow.Len()),
		batch: cfg.Batch,
		steps: cfg.Workflow.DynamicSteps(),
	}}
	for i, group := range groups {
		g.shape.sizes[i] = len(group.Nodes)
		for _, n := range group.Nodes {
			g.shape.fns = append(g.shape.fns, n.Function)
			f, ok := cfg.Functions[n.Function]
			if !ok {
				return nil, fmt.Errorf("platform: workflow %s references unknown function %q", cfg.Workflow.Name(), n.Function)
			}
			if !f.SupportsBatch(cfg.Batch) {
				return nil, fmt.Errorf("platform: function %s does not support batch size %d", n.Function, cfg.Batch)
			}
			g.fns = append(g.fns, f)
		}
	}
	if cfg.Workflow.IsDynamic() {
		dyn, err := newDynSampler(&cfg)
		if err != nil {
			return nil, err
		}
		g.dyn = dyn
	}
	g.root = rng.New(cfg.Seed).Split("workload/" + cfg.Workflow.Name())
	g.arrivals = arrivalInstants(&cfg, g.root)
	reqs := make([]*Request, cfg.N)
	chunk.Run(cfg.N, workloadGrain, workers, func(lo, hi int) { g.fill(reqs, lo, hi) })
	return reqs, nil
}

// arrivalInstants returns every request's admission instant: the
// explicit schedule as given, or the Poisson or closed-loop stream. The
// Poisson gaps come from the workload's arrivals stream, which no
// request's draws touch, so drawing them all first changes nothing.
func arrivalInstants(cfg *WorkloadConfig, root *rng.Stream) []time.Duration {
	if len(cfg.Arrivals) > 0 {
		return cfg.Arrivals
	}
	out := make([]time.Duration, cfg.N)
	gaps := root.Split("arrivals")
	at := time.Duration(0)
	for i := range out {
		if cfg.ArrivalRatePerSec > 0 {
			at += time.Duration(gaps.Exp(cfg.ArrivalRatePerSec) * float64(time.Second))
		} else {
			at += 5 * time.Millisecond
		}
		out[i] = at
	}
	return out
}

// generator is one workload's generation plan, read by every worker
// filling a chunk of it.
type generator struct {
	cfg *WorkloadConfig
	// fns are the functions of the workflow's nodes in flat order, one
	// per base draw of a request.
	fns []*perfmodel.Function
	// shape is the workflow's decision-group sizes, node functions,
	// batch and annotated steps, shared by every request drawn.
	shape    *drawShape
	arrivals []time.Duration
	root     *rng.Stream
	dyn      *dynSampler
}

// chunkStreams are one worker's streams, reseeded for each request and
// each coupled draw rather than allocated.
type chunkStreams struct {
	req, common, replay, dyn rng.Stream
}

// fill draws requests [lo, hi) into reqs. Their Requests and draws are
// carved from arenas allocated once per chunk, each request's draws at
// exact capacity, so an append to one request's Draws never reaches
// another's.
func (g *generator) fill(reqs []*Request, lo, hi int) {
	cfg := g.cfg
	n, k := hi-lo, len(g.fns)
	rs := make([]Request, n)
	draws := make([]perfmodel.Draw, n*k)
	st := new(chunkStreams)
	var dc *dynChunk
	if g.dyn != nil {
		dc = g.dyn.newChunk(n)
	}
	var label [32]byte
	for i := lo; i < hi; i++ {
		g.root.SplitInto(&st.req, string(strconv.AppendInt(append(label[:0], "req/"...), int64(i), 10)))
		shared := st.req.Float64() < cfg.StageCorrelation
		st.req.SplitInto(&st.common, "common")
		r := &rs[i-lo]
		r.Draws, draws = draws[:k:k], draws[k:]
		for b, f := range g.fns {
			r.Draws[b] = g.draw(f, &st.req, st, shared)
		}
		if dc != nil {
			// Dynamic resolutions ride a dedicated child stream, so a
			// static workflow's draw sequence is untouched and adding an
			// annotation never perturbs the base draws above.
			st.req.SplitInto(&st.dyn, "dyn")
			r.Dyn = dc.sample(g, i-lo, st, shared)
		}
		r.ID, r.Workflow, r.Arrival, r.Batch, r.shape = i, cfg.Workflow, g.arrivals[i], cfg.Batch, g.shape
		reqs[i] = r
	}
}

// draw samples one execution from stream or, when the request's stages
// are coupled, from a fresh replay of its common stream: every coupled
// draw replays an identical stream, so inputs, contention and jitter are
// comonotonic along the workflow.
func (g *generator) draw(f *perfmodel.Function, stream *rng.Stream, st *chunkStreams, shared bool) perfmodel.Draw {
	if shared {
		st.common.SplitInto(&st.replay, "replay")
		stream = &st.replay
	}
	coloc := g.cfg.Colocation.Sample(stream)
	return f.NewDraw(stream, g.cfg.Batch, coloc, g.cfg.Interference)
}

// dynSampler is the plan GenerateWorkload resolves every request of a
// dynamic workflow from, built once per workload: the annotated steps in
// DynamicSteps order with their specs, choice weights and functions
// looked up once, and the most attempt counts and draws one request can
// resolve to, which size a chunk's buffers.
type dynSampler struct {
	steps                 []dynSampleStep
	maxAttempts, maxDraws int
}

type dynSampleStep struct {
	spec workflow.DynamicNode
	// weights are a choice step's edge weights, uniform when the spec
	// leaves them nil.
	weights []float64
	// decay is a map step's width law, DefaultMapDecay when the spec
	// leaves it zero.
	decay float64
	fn    *perfmodel.Function
}

// newDynSampler builds the workload's resolution plan, rejecting a
// workflow whose resolutions a dynStep record cannot hold.
func newDynSampler(cfg *WorkloadConfig) (*dynSampler, error) {
	w := cfg.Workflow
	names := w.DynamicSteps()
	s := &dynSampler{steps: make([]dynSampleStep, len(names))}
	for i, step := range names {
		d, _ := w.Dynamic(step)
		node, _ := w.Node(step)
		ss := dynSampleStep{spec: d, fn: cfg.Functions[node.Function]}
		if d.Choice != nil {
			if n := len(w.Successors(step)); n > maxDynChoices {
				return nil, fmt.Errorf("platform: workflow %s choice step %q has %d successors, a resolution records at most %d",
					w.Name(), step, n, maxDynChoices)
			}
			ss.weights = d.Choice.Weights
			if ss.weights == nil {
				ss.weights = make([]float64, len(w.Successors(step)))
				for j := range ss.weights {
					ss.weights[j] = 1
				}
			}
		}
		if d.Map != nil || d.Retry != nil {
			reps, tries := 1, 1
			if d.Map != nil {
				reps = d.Map.MaxWidth
			}
			if d.Retry != nil {
				tries += d.Retry.MaxRetries
			}
			s.maxAttempts += reps
			s.maxDraws += reps * tries
		}
		if d.Map != nil {
			ss.decay = d.Map.Decay
			if ss.decay == 0 {
				ss.decay = workflow.DefaultMapDecay
			}
		}
		s.steps[i] = ss
	}
	if s.maxDraws > maxDynDraws {
		return nil, fmt.Errorf("platform: workflow %s resolves to up to %d draws per request, a resolution records at most %d",
			w.Name(), s.maxDraws, maxDynDraws)
	}
	return s, nil
}

// dynChunk is one chunk's DynDraws arenas: every request's DynDraws and
// records carved from slices of the chunk's length, and its counts and
// draws drawn into reusable buffers, then copied out at exact size into
// block arenas.
type dynChunk struct {
	dyns      []DynDraws
	records   []dynStep
	attempts  []uint8
	draws     []perfmodel.Draw
	attArena  arena[uint8]
	drawArena arena[perfmodel.Draw]
}

func (s *dynSampler) newChunk(n int) *dynChunk {
	return &dynChunk{
		dyns:     make([]DynDraws, n),
		records:  make([]dynStep, n*len(s.steps)),
		attempts: make([]uint8, 0, s.maxAttempts),
		draws:    make([]perfmodel.Draw, 0, s.maxDraws),
	}
}

// sample resolves the chunk's request j from its dyn stream (st.dyn):
// taken branch per choice step, fan-out width per map step,
// failed-attempt counts per retry step, and a draw for every extra
// execution (map replicas and retry attempts) the resolution implies.
func (c *dynChunk) sample(g *generator, j int, st *chunkStreams, shared bool) *DynDraws {
	dynStream := &st.dyn
	k := len(g.dyn.steps)
	records := c.records[j*k : (j+1)*k : (j+1)*k]
	c.attempts, c.draws = c.attempts[:0], c.draws[:0]
	for i := range g.dyn.steps {
		ss := &g.dyn.steps[i]
		rec := dynStep{choice: -1, att: uint16(len(c.attempts)), draw: uint16(len(c.draws))}
		switch d := ss.spec; {
		case d.Choice != nil:
			rec.choice = int16(dynStream.Choice(ss.weights))
		case d.Map != nil || d.Retry != nil:
			rec.reps = 1
			if d.Map != nil {
				rec.width = uint8(dynStream.TruncGeometric(d.Map.MaxWidth, ss.decay))
				rec.reps = rec.width
			}
			for range rec.reps {
				a := 0
				for d.Retry != nil && a < d.Retry.MaxRetries && dynStream.Float64() < d.Retry.FailureProb {
					a++
				}
				c.attempts = append(c.attempts, uint8(a))
			}
			for _, a := range c.attempts[rec.att:] {
				for range int(a) + 1 {
					c.draws = append(c.draws, g.draw(ss.fn, dynStream, st, shared))
				}
			}
		}
		records[i] = rec
	}
	left := len(c.dyns) - j
	dyn := &c.dyns[j]
	*dyn = DynDraws{
		shape:    g.shape,
		steps:    records,
		attempts: c.attArena.clone(c.attempts, j, left),
		draws:    c.drawArena.clone(c.draws, j, left),
	}
	return dyn
}

// arenaWarmup is how many requests a chunk's first arena block is sized
// for; later blocks are sized from the average those requests used.
const arenaWarmup = 32

// arena hands out exact-capacity copies carved from shared blocks, so a
// chunk's requests share a few allocations instead of two each. A block
// that runs short is replaced by one sized for the chunk's remaining
// requests at the average per request so far, plus an eighth.
type arena[T any] struct {
	block []T
	used  int
}

// clone copies src into the arena for the chunk's request done, with
// left requests to go counting this one. An empty src stays nil.
func (a *arena[T]) clone(src []T, done, left int) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if len(a.block) < n {
		size := n * min(left, arenaWarmup)
		if done >= arenaWarmup {
			size = a.used * left / done * 9 / 8
		}
		a.block = make([]T, max(size, n))
	}
	out := a.block[:n:n]
	a.block = a.block[n:]
	a.used += n
	copy(out, src)
	return out
}

// ExecutorConfig sizes the serving plane.
type ExecutorConfig struct {
	// Cluster configures the substrate.
	Cluster cluster.Config
	// WarmStartup is the pod specialization delay when a warm pod exists.
	WarmStartup time.Duration
	// ColdStartup is the pod creation delay when the pool is empty.
	ColdStartup time.Duration
	// DecisionOverhead models the allocator's per-stage decision cost
	// (the paper measures Janus's online adaptation at < 3 ms).
	DecisionOverhead time.Duration
	// Seed is unread: every random condition a run faces is pre-sampled
	// into its requests' draws.
	Seed uint64
	// Tracer, when non-nil, receives the run's typed event stream on the
	// virtual clock (package obs): admission, decisions, parks/wakes,
	// acquires/releases, cold starts, completions, SLO misses, and the
	// replay loop's pool-scale actions, every request-lifecycle event
	// carrying its causal Tenant+Request ID. Tracers only read engine
	// state — attaching one leaves the run byte-identical — and nil (the
	// default) reduces every emit site to one pointer check: no events,
	// no allocations.
	Tracer obs.Tracer
	// Metrics, when non-nil, is the registry the run pre-registers its
	// counter/gauge/histogram handles in (per-tenant decisions,
	// escalations, parks, completions, SLO misses, latency histograms;
	// park-depth and pool-occupancy gauges). Like Tracer, nil costs
	// nothing; attached, the hot path pays plain atomic integer ops.
	Metrics *obs.Registry
}

// StageTimes returns the startup and latency of a stage the executor
// served under c: the startup its Cold flag selects, and the rest of its
// span after the decision overhead, since the scheduler completes every
// node exactly DecisionOverhead + startup + latency after it starts.
func (c ExecutorConfig) StageTimes(st *StageTrace) (startup, latency time.Duration) {
	startup = c.startup(st.Cold)
	return startup, st.End - st.Start - c.DecisionOverhead - startup
}

// startup is the delay before a pod runs its node: ColdStartup for a pod
// created on demand, WarmStartup for one taken from the warm pool.
func (c ExecutorConfig) startup(cold bool) time.Duration {
	if cold {
		return c.ColdStartup
	}
	return c.WarmStartup
}

// DefaultExecutorConfig returns the configuration used by the paper-shaped
// experiments: warm pools, ~2 ms specialization, ~1 ms decision overhead.
func DefaultExecutorConfig() ExecutorConfig {
	return ExecutorConfig{
		Cluster:          cluster.DefaultConfig(),
		WarmStartup:      2 * time.Millisecond,
		ColdStartup:      300 * time.Millisecond,
		DecisionOverhead: time.Millisecond,
	}
}

// Executor serves workloads over a fresh simulated cluster per Run. It
// holds no per-run state — each Run builds its own cluster and event
// engine, each strictly single-goroutine — so concurrent Runs on one
// Executor are safe. The function catalog is shared: Function models are
// immutable after construction.
type Executor struct {
	cfg ExecutorConfig
	fns map[string]*perfmodel.Function
}

// NewExecutor validates the configuration and builds an executor.
func NewExecutor(cfg ExecutorConfig, fns map[string]*perfmodel.Function) (*Executor, error) {
	if cfg.WarmStartup < 0 || cfg.ColdStartup < 0 || cfg.DecisionOverhead < 0 {
		return nil, fmt.Errorf("platform: startup/overhead durations must be >= 0")
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("platform: executor needs a function catalog")
	}
	return &Executor{cfg: cfg, fns: fns}, nil
}

// TenantWorkload is one tenant's contribution to a mixed run: a request
// stream paired with the serving system that sizes it. In the paper's
// provider, many tenants' workflows share one substrate; pairing each
// stream with its own Allocator lets a mixed run serve Janus tenants next
// to early-binding ones on the same warm pools and node capacity.
type TenantWorkload struct {
	// Tenant names the workload; names must be unique within a mixed run
	// (empty is allowed only for a single-workload run).
	Tenant string
	// Requests is the tenant's pre-sampled request sequence. Request IDs
	// must be exactly 0..len(Requests)-1 (GenerateWorkload's numbering).
	Requests []*Request
	// Allocator is the tenant's serving system.
	Allocator Allocator
}

// MemoizableAllocator marks an allocator whose decisions are a pure
// function of (decision group, millisecond-truncated remaining budget)
// between epochs — the adapter's contract: hints.Table.Lookup floors the
// budget to whole milliseconds, and the bundle only changes when Replace
// opens a new epoch. The serving plane memoizes such allocators per
// tenant: repeated decisions in the same bucket skip the table search,
// and RecordCached replays the bookkeeping side effects (hit/miss
// counters, epoch windows, the observed budget range, the regeneration
// trigger) with the decision's true remaining budget, so every observable
// statistic — including the instants regeneration fires — is identical to
// the unmemoized run.
type MemoizableAllocator interface {
	Allocator
	// AllocEpoch identifies the allocator's current decision epoch; any
	// change invalidates previously returned decisions.
	AllocEpoch() int64
	// RecordCached replays the recording side effects of a decision served
	// from the memo: group and the true (untruncated) remaining budget,
	// the epoch the memoized decision was made under, and its hit outcome.
	RecordCached(group int, remaining time.Duration, epoch int64, hit bool)
}

// memoCapMs caps a memo row: a row covers the millisecond budgets
// [0, min(SLO, memoCapMs)], so a huge spec SLO costs at most 2^16+1
// entries per decision group rather than gigabytes. Budgets past the cap
// go to the allocator, like negative ones.
const memoCapMs = 1 << 16

// memoEntry is one memoized decision in a dense memo row: the allocation,
// negated for a hints-table miss (decide accepts only (0, MaxInt32], so
// the sign is free and int32 holds every accepted value), and the
// tenant's memo generation when it was stored. An entry whose gen is not
// the current generation is empty.
type memoEntry struct {
	gen uint32
	mc  int32
}

// tenantRun is one tenant's in-flight serving state.
type tenantRun struct {
	name  string
	alloc Allocator
	// reqs is the tenant's request stream as given; admitRef indexes it.
	reqs []*Request
	// traces holds one trace per request, indexed by request ID; each
	// request accumulates into its slot in place.
	traces []Trace
	done   int
	// trig holds every request's external-event record, indexed by
	// request ID; nil in a run without triggers. starts counts the
	// requests a start trigger admits.
	trig   []reqTrig
	starts int
	// memoable/memo cache decisions of a MemoizableAllocator; memo is nil
	// for allocators without the contract. memo[plan.memoBase+group] is
	// the dense row of one (plan, group), indexed by the millisecond
	// budget and allocated at the group's first memoized decision.
	// memoGen stamps the entries stored in the allocator's current epoch
	// memoEpoch, so moving to a new epoch empties every row at once.
	// Single-goroutine, like everything reached from the event loop.
	memoable  MemoizableAllocator
	memo      [][]memoEntry
	memoEpoch int64
	memoGen   uint32
	// om holds the tenant's pre-registered metric handles; nil when no
	// registry is attached (obs.go).
	om *tenantObs
}

type runState struct {
	ex      *Executor
	engine  *simclock.Engine
	cluster *cluster.Cluster
	tenants []*tenantRun
	// plans caches the readiness structure per workflow: requests of one
	// workload share one plan. memoRows counts the decision groups of
	// every plan, the length of a tenant's memo.
	plans    map[*workflow.Workflow]*dagPlan
	memoRows int
	// fns counts the functions the run deployed: the length of every
	// array keyed by cluster function index.
	fns int
	// done counts requests whose last node finished, across all tenants;
	// RunMixed compares it to the merged request count so starved requests
	// surface as an error instead of draining out as zero-value traces.
	done  int
	total int
	// park holds node acquisitions blocked on pod capacity, bucketed
	// per function — one queue per cluster function index — under
	// min-millicore segment trees (parkindex.go).
	// Capacity freed by any release can unblock any tenant's waiter (a
	// node hosts pods of every function), so the global arrival
	// sequence totally orders parks across functions — which is exactly
	// the cross-tenant contention a shared substrate implies. Parked
	// work is plain data, not closures, and wake() walks the index
	// instead of copying the queue: at fleet scale it used to run
	// thousands deep through a burst, an O(parked) scan per release.
	park parkIndex
	// thr caches per-function acquire thresholds, indexed by the
	// cluster's function index, so a wake gates functions on flat-array
	// integer compares instead of recomputing per probe.
	// thrGen[fn] == cluster.Gen() marks thr[fn] as current: the
	// cluster bumps its generation on every mutation that can move any
	// threshold (and on nothing else — a failed Acquire mutates
	// nothing), so an unchanged generation proves the cache exact.
	thr    []int
	thrGen []uint64
	// retrySlot/retryPos name the park-index position of the entry a
	// wake dispatch took; a failed retry restores there, preserving its
	// original FIFO position.
	retrySlot int
	retryPos  int
	failed    error
	// pool recycles the request states: a request holds one only between
	// its admission and its last node's completion.
	pool reqPool
	// admits lists the requests admitted at their own Arrival, in the
	// order their admission events fire; admitted is the cursor
	// admitNext advances.
	admits   []admitRef
	admitted int
	// triggers is the armed external-event queue in firing order;
	// triggered is the cursor triggerNext advances. The engine's feed
	// merges the two lists from their cursors (fedHead).
	triggers  []armedTrigger
	triggered int
	// free holds the completion records not in flight; each binds its
	// event callback once, so a completion allocates nothing once the
	// list has grown to the run's peak in-flight node count. Request
	// states recycle the same way (pool).
	free []*completion
	// window accumulates the per-function observations a replay run's
	// control ticks consume; nil outside RunReplay.
	window *replayWindow
	// tracer receives the run's event stream; nil (the common case)
	// disables every emit site at the cost of one pointer check.
	tracer obs.Tracer
	// om holds the run-level registry handles (park depth, pool
	// occupancy); nil when no registry is attached.
	om *runObs
}

// parkedNode is one pod acquisition waiting on cluster capacity: the
// already-decided allocation for one member node of a decision group.
// replica distinguishes map replicas of a dynamic node; it is always 0
// for static workflows. The park index stores these records in
// per-function arrays at fleet depth, so the layout is deliberately
// narrow: int32 covers every field's range (group/member/slot are
// dense small indexes, replica < MaxMapWidth, and decide rejects
// allocations past MaxInt32) and keeps the record at 32 bytes.
type parkedNode struct {
	rs      *reqState
	group   int32
	member  int32
	replica int32
	mc      int32
	slot    int32 // the cluster function index: park queue and threshold slot
	hit     bool
}

// dagPlan is the precomputed readiness structure of one workflow DAG: how
// many predecessor nodes gate each decision group and which groups each
// node's completion advances. It is derived once per workflow per run,
// bound to the run's cluster and function catalog, and shared by every
// request (and tenant) serving it.
type dagPlan struct {
	groups [][]workflow.Node
	// predCount[g] is the number of distinct predecessor nodes of group g;
	// the group becomes ready when that many completions have arrived.
	predCount []int
	// base[g] is the flat index of group g's first member: nodes are
	// numbered group by group, flat = base[g] + member. Flat order is
	// topological: a group's predecessors all sit in earlier groups.
	base []int
	// node holds each node's serving data by flat index.
	node []planNode
	// nodes is the total node count; a request completes when that many
	// nodes have finished (dead nodes — pruned by an upstream choice —
	// count as finished at the instant their death is determined).
	nodes int
	// memoBase is the index of the plan's group 0 in a tenant's memo;
	// memoMs is the largest millisecond budget its memo rows cover.
	memoBase int
	memoMs   int
	// dyn is the dynamic-shape overlay (liveness edges, annotations,
	// choice targets); nil for static workflows, whose requests never
	// consult it.
	dyn *dynPlan
	// shape is the last draw shape checkShape accepted for the plan.
	shape *drawShape
}

// planNode is one node's serving data, filled once per run so a launch
// or completion reads flat arrays instead of keying maps by name.
type planNode struct {
	// fn is the node's function index in the run's cluster: its warm
	// pool, park queue, threshold slot and window counters.
	fn int
	// model is the node's latency model from the executor's catalog.
	model *perfmodel.Function
	// deps lists the groups (ascending) whose predecessor set contains
	// the node; every node's list is a sub-slice of one per-plan array.
	deps []int
}

func newDAGPlan(w *workflow.Workflow) *dagPlan {
	decision := w.DecisionGroups()
	p := &dagPlan{
		groups:    make([][]workflow.Node, len(decision)),
		predCount: make([]int, len(decision)),
		base:      make([]int, len(decision)),
		memoMs:    int(min(w.SLO()/time.Millisecond, memoCapMs)),
	}
	flat := make(map[string]int)
	preds := 0
	for g, grp := range decision {
		p.groups[g] = grp.Nodes
		p.predCount[g] = len(grp.Preds)
		p.base[g] = p.nodes
		for _, n := range grp.Nodes {
			flat[n.Name] = p.nodes
			p.nodes++
		}
		preds += len(grp.Preds)
	}
	// Carve each node's dependents from one array: count them per node,
	// then append groups in ascending order into exact-capacity windows.
	p.node = make([]planNode, p.nodes)
	off := make([]int, p.nodes+1)
	for _, grp := range decision {
		for _, pred := range grp.Preds {
			off[flat[pred]+1]++
		}
	}
	deps := make([]int, preds)
	for f := range p.node {
		off[f+1] += off[f]
		p.node[f].deps = deps[off[f]:off[f]:off[f+1]]
	}
	for g, grp := range decision {
		for _, pred := range grp.Preds {
			nd := &p.node[flat[pred]]
			nd.deps = append(nd.deps, g)
		}
	}
	if w.IsDynamic() {
		p.dyn = newDynPlan(w, p, flat)
	}
	return p
}

// planFor returns the plan of r's workflow, building it at the
// workflow's first request: every node is bound to its latency model and
// cluster function index, deploying functions in first-use order — the
// union of every tenant's functions deployed once, so tenants running
// the same function share its warm pool.
func (st *runState) planFor(tenant string, r *Request) (*dagPlan, error) {
	if p, ok := st.plans[r.Workflow]; ok {
		return p, nil
	}
	p := newDAGPlan(r.Workflow)
	if len(p.groups) > maxCoord {
		return nil, fmt.Errorf("platform: workflow %s has %d decision groups, a stage trace indexes at most %d",
			r.Workflow.Name(), len(p.groups), maxCoord)
	}
	for g, group := range p.groups {
		if len(group) > maxCoord {
			return nil, fmt.Errorf("platform: workflow %s decision group %d has %d members, a stage trace indexes at most %d",
				r.Workflow.Name(), g, len(group), maxCoord)
		}
		for b, n := range group {
			model, ok := st.ex.fns[n.Function]
			if !ok {
				return nil, fmt.Errorf("platform: tenant %q request %d references unknown function %q", tenant, r.ID, n.Function)
			}
			fn, ok := st.cluster.Index(n.Function)
			if !ok {
				if err := st.cluster.Deploy(n.Function); err != nil {
					return nil, err
				}
				fn, _ = st.cluster.Index(n.Function)
			}
			nd := &p.node[p.base[g]+b]
			nd.fn, nd.model = fn, model
			st.fns = max(st.fns, fn+1)
		}
	}
	p.memoBase = st.memoRows
	st.memoRows += len(p.groups)
	st.plans[r.Workflow] = p
	st.pool.groups = max(st.pool.groups, len(p.groups))
	if p.dyn != nil {
		st.pool.nodes = max(st.pool.nodes, p.nodes)
	}
	return p, nil
}

// checkShape rejects a request whose draws were drawn for decision groups
// or functions other than the plan's: its flat draws would be served by
// the nodes that happen to sit at their positions, each priced under
// another function's model. It also rejects a request whose Batch is not
// the batch its draws were drawn at, since every launch prices a draw at
// the request's Batch. A workload's requests share one shape, so the
// plan remembers the last shape that passed and checks another only when
// a request carries it. A request built by hand carries no shape: it is
// checked for a Batch every node's function supports, and only for one
// draw per node.
func (p *dagPlan) checkShape(tenant string, r *Request) error {
	sh := r.shape
	if sh == nil {
		for f := range p.node {
			if fn := p.node[f].model; !fn.SupportsBatch(r.Batch) {
				return fmt.Errorf("platform: tenant %q request %d runs at batch %d, which function %s does not support",
					tenant, r.ID, r.Batch, fn.Name())
			}
		}
		return nil
	}
	if sh.batch != r.Batch {
		return fmt.Errorf("platform: tenant %q request %d runs at batch %d, its draws were drawn at batch %d",
			tenant, r.ID, r.Batch, sh.batch)
	}
	if sh == p.shape {
		return nil
	}
	if len(sh.sizes) != len(p.groups) {
		return fmt.Errorf("platform: tenant %q request %d carries %d draw rows, workflow %s has %d decision groups",
			tenant, r.ID, len(sh.sizes), r.Workflow.Name(), len(p.groups))
	}
	for g, group := range p.groups {
		if sh.sizes[g] != len(group) {
			return fmt.Errorf("platform: tenant %q request %d group %d carries %d draws, workflow %s has %d members",
				tenant, r.ID, g, sh.sizes[g], r.Workflow.Name(), len(group))
		}
		for b, n := range group {
			if fn := sh.fns[p.base[g]+b]; fn != n.Function {
				return fmt.Errorf("platform: tenant %q request %d group %d member %d was drawn for function %s, workflow %s runs %s",
					tenant, r.ID, g, b, fn, r.Workflow.Name(), n.Function)
			}
		}
	}
	p.shape = sh
	return nil
}

// reqState is one in-flight request: the per-group readiness countdowns
// and, for a dynamic plan, the shape overlay, with the request's trace
// accumulating in place in its slot of the tenant's traces (its Stages
// carved by prepareRun at exactly the request's executed-node count).
// States are pooled per run: admission takes one and re-initializes it
// from the request's plan, and the request's last node puts it back, so a
// run holds as many states as it ever has requests in flight, not one per
// request.
type reqState struct {
	tn   *tenantRun
	r    *Request
	plan *dagPlan
	tr   *Trace
	// pending[g] counts the group's unfinished predecessor nodes; the
	// group starts when it reaches zero. A dead node (pruned by an
	// upstream choice) counts as finished the instant its death is
	// determined.
	pending []int
	// remaining counts unfinished nodes; the request completes at zero.
	remaining int
	// dyn holds the dynamic-shape state (liveness, replica joins, retry
	// counters, await latches), sliced to length only for a dynamic
	// plan; the scheduler's dynamic branches reduce to one check of the
	// plan each (dynamic).
	dyn dynReqState
	// next links the states on the pool's free list.
	next *reqState
}

// dynamic reports whether the request's plan carries a dynamic overlay.
func (rs *reqState) dynamic() bool { return rs.plan.dyn != nil }

// slabMin is the most states the pool's first slab holds.
const slabMin = 128

// reqPool recycles a run's request states. A state is carved only when
// the free list is empty, so the pool carves as many states as the run's
// peak number of requests in flight. Every state is sized for the run's
// largest request, so any state serves any request. States and their
// arrays are carved from slabs: the first holds min(slabMin, the run's
// requests) states and each later one doubles the pool, so a run
// allocates a few slabs, not a state per request or per new peak, and
// its slabs hold at most max(slabMin, twice the peak) states.
type reqPool struct {
	free *reqState
	// made counts the states carved so far.
	made int
	// groups, nodes and attempts are every state's capacities: the most
	// decision groups of the run's plans, and the most nodes and retry
	// counters of its dynamic plans and resolutions.
	groups, nodes, attempts int
	// states, ints and dyn are the current slab's uncarved remainder.
	states []reqState
	ints   []int
	dyn    []dynNode
}

// take returns a state for request r, re-initialized from its plan p:
// countdowns from predCount and, for a dynamic plan, the overlay from
// inDeg with every retry counter at zero. Nothing carries over from the
// request that held the state before.
func (st *runState) take(p *dagPlan, r *Request) *reqState {
	pl := &st.pool
	rs := pl.free
	if rs != nil {
		pl.free, rs.next = rs.next, nil
	} else {
		rs = pl.carve(st.total)
	}
	rs.plan = p
	rs.pending = rs.pending[:len(p.predCount)]
	copy(rs.pending, p.predCount)
	rs.remaining = p.nodes
	if dp := p.dyn; dp != nil {
		rs.dyn.node = rs.dyn.node[:p.nodes]
		for flat, in := range dp.inDeg {
			rs.dyn.node[flat] = dynNode{liveIn: int32(in)}
		}
		rs.dyn.attempt = rs.dyn.attempt[:len(r.Dyn.attempts)]
		clear(rs.dyn.attempt)
	}
	return rs
}

// carve makes a new state from the current slab, allocating the next
// slab when the current one is used up; requests caps the first.
func (pl *reqPool) carve(requests int) *reqState {
	if len(pl.states) == 0 {
		n := max(pl.made, min(requests, slabMin))
		pl.states = make([]reqState, n)
		pl.ints = make([]int, n*(pl.groups+pl.attempts))
		if pl.nodes > 0 {
			pl.dyn = make([]dynNode, n*pl.nodes)
		}
	}
	rs := &pl.states[0]
	pl.states = pl.states[1:]
	rs.pending, pl.ints = pl.ints[:0:pl.groups], pl.ints[pl.groups:]
	rs.dyn.attempt, pl.ints = pl.ints[:0:pl.attempts], pl.ints[pl.attempts:]
	rs.dyn.node, pl.dyn = pl.dyn[:0:pl.nodes], pl.dyn[pl.nodes:]
	pl.made++
	return rs
}

// put returns a finished request's state to the pool.
func (pl *reqPool) put(rs *reqState) {
	rs.tn, rs.r, rs.tr = nil, nil, nil
	rs.next, pl.free = pl.free, rs
}

// Run serves the requests with the given allocator and returns one trace
// per request, ordered by request ID. It is the single-tenant special case
// of RunMixed: one workload owning the whole cluster.
func (e *Executor) Run(reqs []*Request, alloc Allocator) ([]Trace, error) {
	out, err := e.RunMixed([]TenantWorkload{{Requests: reqs, Allocator: alloc}})
	if err != nil {
		return nil, err
	}
	return out[""], nil
}

// RunMixed merges the arrival streams of several tenants' workloads into
// one discrete-event run on one shared cluster and returns each tenant's
// traces (ordered by request ID) keyed by tenant name. Tenants genuinely
// contend: warm pools, node millicores and the FIFO capacity queue are all
// shared, so a burst from one tenant inflates another's cold starts and
// parking — the multi-tenant serving condition that motivates bilateral
// adaptation. Interference stays each request's own pre-sampled draw.
//
// Requests that never finish — their allocation can never be placed on any
// node, so their continuations stay parked after the event queue drains —
// fail the run explicitly: a zero-value trace (E2E 0, zero millicores)
// would silently flatter every violation-rate and cost metric downstream.
func (e *Executor) RunMixed(tenants []TenantWorkload) (map[string][]Trace, error) {
	st, err := e.prepareRun(tenants, nil)
	if err != nil {
		return nil, err
	}
	st.engine.Run()
	return st.collect()
}

// prepareRun validates the tenant workloads, builds a fresh cluster and
// event engine, deploys the union of every tenant's functions, and
// schedules all admissions — the shared front half of RunMixed and
// RunReplay. The caller decides what else rides on the engine before
// draining it. triggers is the replay run's external-event queue (nil
// outside RunReplay); workflows with await steps are only servable
// when every await is covered by a trigger.
func (e *Executor) prepareRun(tenants []TenantWorkload, triggers []Trigger) (*runState, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("platform: no tenant workloads")
	}
	seen := make(map[string]bool, len(tenants))
	total := 0
	for i, tw := range tenants {
		if tw.Tenant == "" && len(tenants) > 1 {
			return nil, fmt.Errorf("platform: tenant %d has no name (names are required in a mixed run)", i)
		}
		if seen[tw.Tenant] {
			return nil, fmt.Errorf("platform: duplicate tenant %q", tw.Tenant)
		}
		seen[tw.Tenant] = true
		if len(tw.Requests) == 0 {
			return nil, fmt.Errorf("platform: tenant %q has no requests", tw.Tenant)
		}
		if tw.Allocator == nil {
			return nil, fmt.Errorf("platform: tenant %q has a nil allocator", tw.Tenant)
		}
		ids := make([]bool, len(tw.Requests))
		for _, r := range tw.Requests {
			if r.ID < 0 || r.ID >= len(tw.Requests) || ids[r.ID] {
				return nil, fmt.Errorf("platform: tenant %q request IDs must be unique in [0, %d), got %d",
					tw.Tenant, len(tw.Requests), r.ID)
			}
			ids[r.ID] = true
		}
		total += len(tw.Requests)
	}
	cl, err := cluster.New(e.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	st := &runState{
		ex:      e,
		engine:  simclock.New(),
		cluster: cl,
		plans:   make(map[*workflow.Workflow]*dagPlan),
		total:   total,
		tracer:  e.cfg.Tracer,
	}
	if e.cfg.Metrics != nil {
		st.om = newRunObs(e.cfg.Metrics)
	}
	// Validate every request's draws against the plan the engine will
	// actually execute — drawn for the workflow's decision groups and
	// functions, one draw per node — building and binding each workflow's
	// plan at its first request (planFor). The same pass fills every
	// trace's header and counts the request's executed nodes: every node
	// of a static request, the live executions its resolution implies for
	// a dynamic one. A trace's Stages leaves this pass as a window of that
	// capacity on a scratch slice, until the stage arena is sized.
	traces := make([][]Trace, len(tenants))
	var scratch []StageTrace
	totalStages := 0
	for t, tw := range tenants {
		traces[t] = make([]Trace, len(tw.Requests))
		for _, r := range tw.Requests {
			plan, err := st.planFor(tw.Tenant, r)
			if err != nil {
				return nil, err
			}
			if err := plan.checkShape(tw.Tenant, r); err != nil {
				return nil, err
			}
			if len(r.Draws) != plan.nodes {
				return nil, fmt.Errorf("platform: tenant %q request %d carries %d draws, workflow %s has %d nodes",
					tw.Tenant, r.ID, len(r.Draws), r.Workflow.Name(), plan.nodes)
			}
			stages := plan.nodes
			if dp := plan.dyn; dp != nil {
				if err := dp.validateRequest(tw.Tenant, r); err != nil {
					return nil, err
				}
				stages = dp.executions(r.Dyn)
				st.pool.attempts = max(st.pool.attempts, len(r.Dyn.attempts))
			}
			if stages > cap(scratch) {
				scratch = make([]StageTrace, 0, max(stages, 2*cap(scratch)))
			}
			traces[t][r.ID] = Trace{RequestID: r.ID, Arrival: r.Arrival, SLO: r.Workflow.SLO(), Stages: scratch[:0:stages]}
			totalStages += stages
		}
	}
	st.park.init(st.fns)
	st.thr, st.thrGen = make([]int, st.fns), make([]uint64, st.fns)
	// Only the run's outputs are built up front: every trace's header,
	// its Stages re-pointed into one arena at exactly the request's
	// executed-node count. In-flight state comes from the run's pool at
	// admission.
	stageArena := make([]StageTrace, totalStages)
	so := 0
	for t, tw := range tenants {
		tn := &tenantRun{name: tw.Tenant, alloc: tw.Allocator, reqs: tw.Requests, traces: traces[t]}
		if st.om != nil {
			tn.om = st.om.tenant(tw.Tenant, st.fns)
		}
		if m, ok := tw.Allocator.(MemoizableAllocator); ok {
			tn.memoable = m
			tn.memo = make([][]memoEntry, st.memoRows)
			tn.memoEpoch = m.AllocEpoch()
			tn.memoGen = 1 // zero-valued entries are empty
		}
		if len(triggers) > 0 {
			tn.trig = make([]reqTrig, len(tw.Requests))
		}
		st.tenants = append(st.tenants, tn)
		for i := range tn.traces {
			tr := &tn.traces[i]
			stages := cap(tr.Stages)
			tr.Stages = stageArena[so : so : so+stages]
			so += stages
		}
		if tn.trig != nil {
			for _, r := range tw.Requests {
				tn.trig[r.ID] = reqTrig{r: r, awaits: -1}
			}
		}
	}
	if err := st.armTriggers(triggers); err != nil {
		return nil, err
	}
	if err := st.checkAwaits(); err != nil {
		return nil, err
	}
	// Admissions fire by arrival, ties broken by tenant and then input
	// position, so the interleaving is a pure function of the inputs and
	// mixed runs replay byte for byte; triggers fire by instant, ties
	// broken by queue position, and a trigger fires before a same-instant
	// admission. The engine is fed both lists merged in exactly that
	// order from their cursors (fedHead), and a fed event fires before
	// anything scheduled at its instant, so nothing of either list is
	// copied into the engine's queues.
	st.admits = st.admissionOrder()
	st.engine.Feed(st.nextFed, st.fireFed)
	return st, nil
}

// fedHead reports the instant of the next admission or trigger to fire,
// whether it is a trigger, and false once both lists are spent. A
// trigger goes first on a tie.
func (st *runState) fedHead() (at time.Duration, trigger, ok bool) {
	if st.triggered < len(st.triggers) {
		at, trigger, ok = st.triggers[st.triggered].at, true, true
	}
	if st.admitted < len(st.admits) {
		a := st.admits[st.admitted]
		if arr := st.tenants[a.tenant].reqs[a.idx].Arrival; !ok || arr < at {
			at, trigger, ok = arr, false, true
		}
	}
	return at, trigger, ok
}

// nextFed is the engine's cursor over the merged admissions and
// triggers.
func (st *runState) nextFed() (time.Duration, bool) {
	at, _, ok := st.fedHead()
	return at, ok
}

// fireFed fires the next admission or trigger.
func (st *runState) fireFed(now time.Duration) {
	if _, trigger, _ := st.fedHead(); trigger {
		st.triggerNext(now)
	} else {
		st.admitNext(now)
	}
}

// admitRef names a request admitted at its own Arrival: its tenant's
// index in the run and its position in the tenant's stream.
type admitRef struct{ tenant, idx int32 }

// admissionOrder lists the requests admitted at their own Arrival (not
// by a start trigger) by arrival, ties broken by tenant and then input
// position: a T-way merge of the tenants' streams that takes the lowest
// tenant on a tie. A tenant with no start-triggered request whose stream
// ascends, as GenerateWorkload emits it, is merged in input order; any
// other tenant's remaining positions are listed and stably sorted first.
func (st *runState) admissionOrder() []admitRef {
	streams := make([]admitStream, len(st.tenants))
	total := 0
	for t, tn := range st.tenants {
		s := &streams[t]
		s.reqs, s.n = tn.reqs, len(tn.reqs)
		if tn.starts > 0 || !slices.IsSortedFunc(tn.reqs, func(a, b *Request) int { return cmp.Compare(a.Arrival, b.Arrival) }) {
			s.pos = make([]int32, 0, len(tn.reqs)-tn.starts)
			for i, r := range tn.reqs {
				if tn.trig == nil || !tn.trig[r.ID].external {
					s.pos = append(s.pos, int32(i))
				}
			}
			byArrival := func(a, b int32) int { return cmp.Compare(tn.reqs[a].Arrival, tn.reqs[b].Arrival) }
			if !slices.IsSortedFunc(s.pos, byArrival) {
				slices.SortStableFunc(s.pos, byArrival)
			}
			s.n = len(s.pos)
		}
		total += s.n
	}
	order := make([]admitRef, 0, total)
	for len(order) < total {
		best, at := -1, time.Duration(0)
		for t := range streams {
			s := &streams[t]
			if s.next == s.n {
				continue
			}
			if a := s.reqs[s.idx()].Arrival; best < 0 || a < at {
				best, at = t, a
			}
		}
		s := &streams[best]
		order = append(order, admitRef{tenant: int32(best), idx: int32(s.idx())})
		s.next++
	}
	return order
}

// admitStream is one tenant's stream in admissionOrder's merge: the
// positions of its requests admitted at their own Arrival, in arrival
// order, or nil when those are all its requests in input order.
type admitStream struct {
	reqs    []*Request
	pos     []int32
	next, n int
}

// idx is the stream position of the stream's next request.
func (s *admitStream) idx() int {
	if s.pos == nil {
		return s.next
	}
	return int(s.pos[s.next])
}

// admitNext admits the request the admission cursor names and advances
// it: admissions fire in admission order.
func (st *runState) admitNext(time.Duration) {
	a := st.admits[st.admitted]
	st.admitted++
	tn := st.tenants[a.tenant]
	st.startRequest(tn, tn.reqs[a.idx])
}

// reqTrig is one request's external-event record, kept only in runs with
// triggers. Triggers address a (tenant, request) pair, not a state: the
// request may not be admitted yet when one fires, or may have finished.
type reqTrig struct {
	r *Request
	// rs is the request's state while it is in flight; nil before its
	// admission and after it finished.
	rs *reqState
	// awaits is the index in runState.triggers of the request's first
	// await trigger; the chain goes on through armedTrigger.next in
	// firing order, and -1 ends it. Triggers fire in index order, so the
	// chain's entries before the trigger cursor are the ones that fired:
	// an await trigger that fires before admission latches there, and
	// admission copies the latch into the overlay.
	awaits int32
	// external marks a request admitted by a start trigger rather than
	// its own Arrival instant.
	external bool
}

// armedTrigger is one validated external event: flat names the await
// step it resumes, or is -1 for a start trigger; next chains one
// request's await triggers (reqTrig.awaits).
type armedTrigger struct {
	at                      time.Duration
	tenant, req, flat, next int32
}

// armTriggers validates the external-event queue against the tenants'
// requests, found by request ID, and arms it in firing order: stably
// sorted by instant, so same-instant triggers keep their queue order and
// runs replay byte for byte. A start trigger marks its request external,
// which takes it out of the admission order.
func (st *runState) armTriggers(triggers []Trigger) error {
	st.triggers = make([]armedTrigger, 0, len(triggers))
	if len(triggers) == 0 {
		return nil
	}
	byName := make(map[string]int32, len(st.tenants))
	for t, tn := range st.tenants {
		byName[tn.name] = int32(t)
	}
	for i, tr := range triggers {
		if tr.At < 0 {
			return fmt.Errorf("platform: trigger %d fires at negative instant %v", i, tr.At)
		}
		t, ok := byName[tr.Tenant]
		if !ok {
			return fmt.Errorf("platform: trigger %d addresses unknown tenant %q", i, tr.Tenant)
		}
		tn := st.tenants[t]
		if tr.Request < 0 || tr.Request >= len(tn.trig) {
			return fmt.Errorf("platform: trigger %d addresses unknown request %d of tenant %q", i, tr.Request, tr.Tenant)
		}
		rec := &tn.trig[tr.Request]
		armed := armedTrigger{at: tr.At, tenant: t, req: int32(tr.Request), flat: -1, next: -1}
		if tr.Step == "" {
			if rec.external {
				return fmt.Errorf("platform: tenant %q request %d has more than one start trigger", tr.Tenant, tr.Request)
			}
			rec.external = true
			tn.starts++
			st.triggers = append(st.triggers, armed)
			continue
		}
		dp := st.plans[rec.r.Workflow].dyn
		if dp == nil {
			return fmt.Errorf("platform: trigger %d resumes step %q of static workflow %s", i, tr.Step, rec.r.Workflow.Name())
		}
		flat, ok := dp.flat[tr.Step]
		if !ok || !dp.isAwait(flat) {
			return fmt.Errorf("platform: trigger %d resumes step %q of workflow %s, which is not an await step", i, tr.Step, rec.r.Workflow.Name())
		}
		armed.flat = int32(flat)
		st.triggers = append(st.triggers, armed)
	}
	byAt := func(a, b armedTrigger) int { return cmp.Compare(a.at, b.at) }
	if !slices.IsSortedFunc(st.triggers, byAt) {
		slices.SortStableFunc(st.triggers, byAt)
	}
	for k := len(st.triggers) - 1; k >= 0; k-- {
		if tr := &st.triggers[k]; tr.flat >= 0 {
			rec := &st.tenants[tr.tenant].trig[tr.req]
			tr.next, rec.awaits = rec.awaits, int32(k)
		}
	}
	return nil
}

// checkAwaits verifies, over the armed trigger list, that every await
// step of every request has a trigger addressed to it: awaits resume
// only through the replay engine's external-event queue, so an uncovered
// one could never finish.
func (st *runState) checkAwaits() error {
	for _, tn := range st.tenants {
		for _, r := range tn.reqs {
			dp := st.plans[r.Workflow].dyn
			if dp == nil {
				continue
			}
			for _, flat := range dp.awaits {
				k := int32(-1)
				if tn.trig != nil {
					k = tn.trig[r.ID].awaits
				}
				for k >= 0 && int(st.triggers[k].flat) != flat {
					k = st.triggers[k].next
				}
				if k < 0 {
					return fmt.Errorf("platform: await step %q of tenant %q request %d has no trigger; awaits resume only through ReplayConfig.Triggers",
						dp.steps[flat], tn.name, r.ID)
				}
			}
		}
	}
	return nil
}

// triggerNext fires the trigger the trigger cursor names and advances
// it: triggers fire in the armed order.
func (st *runState) triggerNext(now time.Duration) {
	tr := &st.triggers[st.triggered]
	st.triggered++
	tn := st.tenants[tr.tenant]
	rec := &tn.trig[tr.req]
	if tr.flat < 0 {
		st.startRequestAt(tn, rec.r, now)
	} else {
		st.fireTrigger(tn, rec, int(tr.flat), now)
	}
}

// startRequestAt admits a trigger-started request: its SLO clock starts
// at the fire instant, not the (unused) Arrival it was generated with.
func (st *runState) startRequestAt(tn *tenantRun, r *Request, now time.Duration) {
	tn.traces[r.ID].Arrival = now
	if st.tracer != nil {
		st.tracer.Emit(obs.Event{At: now, Kind: obs.KindTrigger, Tenant: tn.name, Request: r.ID, Reason: "start"})
	}
	st.startRequest(tn, r)
}

// collect checks the drained run for failures and starvation and splits
// the traces per tenant.
func (st *runState) collect() (map[string][]Trace, error) {
	total := st.total
	if st.failed != nil {
		return nil, st.failed
	}
	if st.done != total {
		starved := ""
		for _, tn := range st.tenants {
			if missing := len(tn.traces) - tn.done; missing > 0 {
				starved += fmt.Sprintf(" %s:%d", tn.name, missing)
			}
		}
		return nil, fmt.Errorf("platform: %d of %d requests never completed (allocation cannot be placed on any node; %d node continuation(s) still parked; per tenant:%s)",
			total-st.done, total, st.park.live, starved)
	}
	out := make(map[string][]Trace, len(st.tenants))
	for _, tn := range st.tenants {
		out[tn.name] = tn.traces
	}
	return out, nil
}

// startRequest admits request r of tenant tn: it takes a state from the
// run's pool, latches the await triggers that fired before admission,
// and starts every group with no predecessors (the root group).
func (st *runState) startRequest(tn *tenantRun, r *Request) {
	if st.failed != nil {
		return
	}
	rs := st.take(st.plans[r.Workflow], r)
	rs.tn, rs.r, rs.tr = tn, r, &tn.traces[r.ID]
	if tn.trig != nil {
		rec := &tn.trig[r.ID]
		rec.rs = rs
		for k := rec.awaits; k >= 0 && int(k) < st.triggered; k = st.triggers[k].next {
			rs.dyn.node[st.triggers[k].flat].fired = true
		}
	}
	if st.tracer != nil {
		ev := reqEvent(rs, st.engine.Now(), obs.KindAdmit)
		ev.Value = int64(rs.r.Workflow.SLO())
		st.tracer.Emit(ev)
	}
	for g, n := range rs.pending {
		if n == 0 {
			st.startGroup(rs, g)
			if st.failed != nil {
				return
			}
		}
	}
}

// startGroup runs at a decision group's readiness instant, when every
// predecessor has completed (or, in a dynamic workflow, died). A dynamic
// group whose members were all pruned is skipped — their deaths already
// advanced readiness — and an await member defers the group's decision
// to its trigger's fire instant (fireTrigger).
func (st *runState) startGroup(rs *reqState, group int) {
	if st.failed != nil {
		return
	}
	if rs.dynamic() && !rs.dynReady(group) {
		return
	}
	st.launchGroup(rs, group)
}

// launchGroup makes the group's allocation decision — exactly once, even
// if member nodes later stall on capacity — and launches every member:
// in a dynamic workflow, every live member, a map member as its resolved
// number of replicas.
func (st *runState) launchGroup(rs *reqState, group int) {
	mc, hit := st.decide(rs, group, st.engine.Now())
	if st.failed != nil {
		return
	}
	for b := range rs.plan.groups[group] {
		width := 1
		if rs.dynamic() {
			width = rs.armReplicas(group, b)
		}
		for rep := 0; rep < width; rep++ {
			st.startNode(rs, group, b, rep, mc, hit, false)
			if st.failed != nil {
				return
			}
		}
	}
}

// decide makes one allocation decision for the group at now — its
// readiness instant, or a retried attempt's — and records it. The budget
// handed to the allocator is the critical-path remaining budget
// SLO − elapsed: the group's descendant cone (every path from here to the
// workflow's sinks) must complete within it, and the group's hints table
// splits it over the cone's critical path, so no further scaling is
// applied at decision time. Static decisions go through the tenant's
// memo; dynamic ones reveal the group's resolved shape instead
// (allocateDyn). An allocation outside (0, MaxInt32] fails the run: the
// park record and the memo hold allocations in 32 bits.
func (st *runState) decide(rs *reqState, group int, now time.Duration) (int, bool) {
	remaining := rs.tr.SLO - (now - rs.tr.Arrival)
	var mc int
	var hit bool
	if !rs.dynamic() {
		mc, hit = st.allocate(rs, group, remaining)
	} else {
		mc, hit = st.allocateDyn(rs, group, remaining)
	}
	if mc <= 0 || mc > math.MaxInt32 {
		st.fail(fmt.Errorf("platform: allocator %s returned allocation %d outside (0, %d]", rs.tn.alloc.Name(), mc, math.MaxInt32))
		return 0, false
	}
	rs.tr.Decisions++
	if !hit {
		rs.tr.Misses++
	}
	if st.tracer != nil {
		ev := reqEvent(rs, now, obs.KindDecision)
		ev.Group = group
		ev.Value = int64(mc)
		ev.Aux = int64(remaining)
		ev.Flag = hit
		if rs.dynamic() {
			ev.Reason = st.groupShape(rs, group)
		}
		st.tracer.Emit(ev)
	}
	if rs.tn.om != nil {
		rs.tn.om.decision(hit)
	}
	return mc, hit
}

// allocate makes one decision, serving it from the tenant's memo when the
// allocator declared itself memoizable. Cache hits replay the allocator's
// recording side effects through RecordCached with the true remaining
// budget, so stats, epoch windows, and regeneration instants match the
// unmemoized run exactly; the memo empties whenever the allocator's
// epoch moves (a hot-swapped bundle decides differently). Budgets outside
// the group's row — negative ones, and any past the row's cap — go
// straight to the allocator, which is always what the memo stands in for.
func (st *runState) allocate(rs *reqState, group int, remaining time.Duration) (int, bool) {
	tn := rs.tn
	if tn.memo == nil {
		return tn.alloc.Allocate(rs.r, group, remaining)
	}
	if ep := tn.memoable.AllocEpoch(); ep != tn.memoEpoch {
		tn.memoEpoch = ep
		tn.memoGen++ // a run would need 2^32 epochs to wrap
	}
	ms := int(remaining / time.Millisecond)
	if remaining < 0 || ms > rs.plan.memoMs {
		return tn.alloc.Allocate(rs.r, group, remaining)
	}
	row := tn.memo[rs.plan.memoBase+group]
	if row == nil {
		row = make([]memoEntry, rs.plan.memoMs+1)
		tn.memo[rs.plan.memoBase+group] = row
	}
	if e := row[ms]; e.gen == tn.memoGen {
		mc, hit := int(e.mc), e.mc > 0
		if !hit {
			mc = -mc
		}
		tn.memoable.RecordCached(group, remaining, tn.memoEpoch, hit)
		return mc, hit
	}
	// An allocation outside (0, MaxInt32] does not fit the entry, but
	// decide fails the run on it before any later decision could read it.
	mc, hit := tn.alloc.Allocate(rs.r, group, remaining)
	row[ms] = memoEntry{gen: tn.memoGen, mc: int32(mc)}
	if !hit {
		row[ms].mc = -row[ms].mc
	}
	return mc, hit
}

// startNode acquires a pod for one node — one replica of it, in a dynamic
// workflow — parking the acquisition (not the decision — that is already
// made and paid for) when the cluster lacks capacity. retried marks a
// wake()-driven re-attempt: a node counts one Parked queueing episode no
// matter how many releases it sleeps through before fitting.
func (st *runState) startNode(rs *reqState, group, member, replica, mc int, hit, retried bool) {
	if st.failed != nil {
		return
	}
	flat := rs.plan.base[group] + member
	fn := rs.plan.node[flat].fn
	pod, cold, err := st.cluster.Acquire(fn, mc)
	if err != nil {
		// No capacity right now: park the continuation until a release.
		// Each node parks independently — its group siblings keep running.
		if retried {
			// A woken entry that still cannot fit re-parks at its
			// original position, keeping its place in FIFO order.
			st.park.restore(st.retrySlot, st.retryPos)
			if st.om != nil {
				st.om.parkDepth.Set(int64(st.park.live))
			}
			return
		}
		rs.tr.Parked++
		if st.window != nil {
			st.window.queued[fn]++
		}
		st.park.park(fn, parkedNode{rs: rs, group: int32(group), member: int32(member), replica: int32(replica), mc: int32(mc), hit: hit})
		if st.tracer != nil {
			ev := reqEvent(rs, st.engine.Now(), obs.KindPark)
			ev.Group, ev.Member, ev.Replica = group, member, replica
			ev.Function = rs.plan.groups[group][member].Function
			ev.Value = int64(mc)
			st.tracer.Emit(ev)
		}
		if rs.tn.om != nil {
			rs.tn.om.parked.Inc()
		}
		if st.om != nil {
			st.om.parkDepth.Set(int64(st.park.live))
		}
		return
	}
	if st.window != nil {
		if retried {
			st.window.queued[fn]--
		}
		st.window.acquires[fn]++
		if cold {
			st.window.cold[fn]++
		}
	}
	if st.tracer != nil {
		now := st.engine.Now()
		ev := reqEvent(rs, now, obs.KindAcquire)
		ev.Group, ev.Member, ev.Replica = group, member, replica
		ev.Function = pod.Function
		ev.Value = int64(pod.Millicores())
		ev.Aux = int64(pod.NodeID)
		ev.Flag = cold
		st.tracer.Emit(ev)
		if cold {
			cs := reqEvent(rs, now, obs.KindColdStart)
			cs.Group, cs.Member, cs.Replica = group, member, replica
			cs.Function = pod.Function
			cs.Value = int64(st.ex.cfg.ColdStartup)
			st.tracer.Emit(cs)
		}
	}
	n := nodeRun{rs: rs, pod: pod, group: group, member: member, replica: replica, cold: cold, hit: hit}
	draw := rs.r.Draws[flat]
	if rs.dynamic() {
		// Map replicas and retry attempts run off their own pre-sampled
		// draws; other dynamic nodes keep the base draw.
		if k := rs.plan.dyn.rec[flat]; k >= 0 && rs.r.Dyn.steps[k].reps > 0 {
			s := &rs.r.Dyn.steps[k]
			n.attempt = rs.dyn.attempt[int(s.att)+replica]
			draw = rs.r.Dyn.replicaDraws(s, replica)[n.attempt]
		}
	}
	st.launch(n, draw)
}

// nodeRun is one node attempt running on its pod: what its completion
// needs to record the stage and advance the request. replica and attempt
// are always 0 for static workflows.
type nodeRun struct {
	rs               *reqState
	pod              *cluster.Pod
	start            time.Duration
	group, member    int
	replica, attempt int
	cold, hit        bool
}

// completion is a pooled node-completion event: fire is bound to the
// record once, when it is created, so scheduling one allocates nothing.
type completion struct {
	st   *runState
	fire simclock.Event
	run  nodeRun
}

// launch prices one node attempt on its acquired pod — startup, and the
// latency of the request's draw at its batch and the pod's allocation —
// and schedules its completion on a record from the run's free list.
func (st *runState) launch(n nodeRun, draw perfmodel.Draw) {
	fn := n.rs.plan.node[n.rs.plan.base[n.group]+n.member].model
	startup := st.ex.cfg.startup(n.cold)
	latency := fn.Latency(draw, n.rs.r.Batch, n.pod.Millicores())
	n.start = st.engine.Now()
	var c *completion
	if k := len(st.free); k > 0 {
		c = st.free[k-1]
		st.free = st.free[:k-1]
	} else {
		c = &completion{st: st}
		c.fire = c.done
	}
	c.run = n
	// The group's decision gates every member launch, so each node span
	// carries the decision overhead alongside its own startup and latency.
	st.engine.Schedule(st.ex.cfg.DecisionOverhead+startup+latency, c.fire)
}

// done is a completion record's event. It copies the record out and
// returns it to the free list before doing any work: the wake below can
// launch other nodes, and a nested launch may take this very record.
func (c *completion) done(end time.Duration) {
	st, n := c.st, c.run
	c.run = nodeRun{}
	st.free = append(st.free, c)
	if st.failed != nil {
		return
	}
	rs := n.rs
	mc := n.pod.Millicores()
	rs.tr.Stages = append(rs.tr.Stages, StageTrace{
		Start:      n.start,
		End:        end,
		Node:       int32(n.pod.NodeID),
		Millicores: int32(mc),
		Stage:      uint16(n.group),
		Branch:     uint16(n.member),
		Replica:    uint8(n.replica),
		Attempt:    uint8(n.attempt),
		Cold:       n.cold,
		Hit:        n.hit,
	})
	rs.tr.TotalMillicores += mc
	if st.tracer != nil {
		ev := reqEvent(rs, end, obs.KindRelease)
		ev.Group, ev.Member, ev.Replica = n.group, n.member, n.replica
		ev.Function = rs.plan.groups[n.group][n.member].Function
		ev.Value = int64(mc)
		ev.Aux = int64(n.pod.NodeID)
		st.tracer.Emit(ev)
	}
	if rs.tn.om != nil {
		_, latency := st.ex.cfg.StageTimes(&rs.tr.Stages[len(rs.tr.Stages)-1])
		rs.tn.om.observeNode(rs.plan.node[rs.plan.base[n.group]+n.member].fn, rs.plan.groups[n.group][n.member].Function, latency)
	}
	if err := st.cluster.Release(n.pod); err != nil {
		st.fail(err)
		return
	}
	st.wake()
	st.replicaDone(rs, n.group, n.member, n.replica, end)
}

// replicaDone handles one attempt's completion. In a dynamic workflow a
// planned failure re-decides and relaunches the replica (bounded retry),
// only the last replica's success completes a map node, and a completed
// choice node kills its unchosen successor edges — settling every
// downstream readiness countdown — before its own completion counts.
func (st *runState) replicaDone(rs *reqState, group, member, replica int, end time.Duration) {
	if rs.dynamic() {
		dp := rs.plan.dyn
		flat := rs.plan.base[group] + member
		k := dp.rec[flat]
		if k >= 0 && rs.r.Dyn.steps[k].reps > 0 {
			if i := int(rs.r.Dyn.steps[k].att) + replica; rs.dyn.attempt[i] < int(rs.r.Dyn.attempts[i]) {
				rs.dyn.attempt[i]++
				// The re-attempt is a new readiness instant for this node:
				// a fresh decision against the SLO budget that remains now.
				// The group's cone table still applies — the remaining work
				// is the same cone, just later in its budget.
				mc, hit := st.decide(rs, group, end)
				if st.failed != nil {
					return
				}
				st.startNode(rs, group, member, replica, mc, hit, false)
				return
			}
		}
		nd := &rs.dyn.node[flat]
		nd.repsLeft--
		if nd.repsLeft > 0 {
			return
		}
		if dp.spec[flat].Choice != nil {
			chosen := int(rs.r.Dyn.steps[k].choice)
			for i, next := range dp.succ[flat] {
				if i == chosen {
					continue
				}
				st.edgeDead(rs, next, end)
				if st.failed != nil {
					return
				}
			}
		}
	}
	st.nodeDone(rs, group, member, end)
}

// nodeDone counts one node as finished — completed, or pruned by an
// upstream choice — and advances the readiness countdowns: any dependent
// group whose predecessor count reaches zero starts (the implicit join at
// in-degree > 1 nodes), and the request finishes when its last node does.
// A pruned node first propagates its death along every outgoing edge, the
// cascade that prunes a whole unchosen subtree in one instant.
func (st *runState) nodeDone(rs *reqState, group, member int, end time.Duration) {
	rs.remaining--
	if rs.remaining == 0 {
		st.finishRequest(rs, end)
		return
	}
	flat := rs.plan.base[group] + member
	if rs.dynamic() && rs.dyn.node[flat].dead {
		for _, next := range rs.plan.dyn.succ[flat] {
			st.edgeDead(rs, next, end)
			if st.failed != nil {
				return
			}
		}
	}
	for _, dg := range rs.plan.node[flat].deps {
		rs.pending[dg]--
		if rs.pending[dg] == 0 {
			st.startGroup(rs, dg)
			if st.failed != nil {
				return
			}
		}
	}
}

// finishRequest completes a request's trace once its last node finished
// and returns its state to the run's pool: nothing may touch rs after.
func (st *runState) finishRequest(rs *reqState, end time.Duration) {
	rs.tr.Done = end
	rs.tr.E2E = end - rs.tr.Arrival
	rs.tn.done++
	st.done++
	if st.tracer != nil || rs.tn.om != nil {
		st.observeComplete(rs, end)
	}
	if rs.tn.trig != nil {
		rs.tn.trig[rs.r.ID].rs = nil
	}
	st.pool.put(rs)
}

// threshold reports function fn's current acquire threshold,
// recomputing only when the cluster's mutation generation has moved since
// the cached read. Generations start at 1 (Deploy bumps), so the zero
// cache is always stale.
func (st *runState) threshold(fn int) int {
	if g := st.cluster.Gen(); st.thrGen[fn] != g {
		st.thr[fn] = st.cluster.AcquireThreshold(fn)
		st.thrGen[fn] = g
	}
	return st.thr[fn]
}

// wake re-admits parked acquisitions in FIFO order; those that still
// cannot acquire a pod re-park in place. It emulates the seed forward
// scan exactly without visiting skipped entries: the scan the index
// replaces walked a snapshot in arrival order, gating each entry on a
// per-function threshold cached between wakes — equivalently,
// repeatedly admit the smallest-sequence entry at or after the cursor
// that fits its function's current threshold, then advance the cursor
// past it. The two are identical because between admissions thresholds
// are constant (a failed probe mutates nothing), neither form revisits
// entries behind the cursor within one scan, and entries parked after
// the scan started (sequence >= limit) stay invisible, exactly like
// the seed's snapshot. wake never re-enters itself: acquisitions
// either succeed (scheduling a completion event) or re-park — neither
// releases a pod synchronously.
//
// A retry is attempted only when the cluster's AcquireThreshold says it
// would succeed — the predicate is exact, so an entry failing it
// re-parks with precisely the state evolution of a failed Acquire
// (none). A saturated release therefore costs one integer compare per
// parked *function* (queue min vs threshold), not per entry; an
// admission costs O(functions · log parked) index steps.
func (st *runState) wake() {
	if st.park.live == 0 {
		return
	}
	cursor, limit := uint64(0), st.park.seq
	for {
		slot, pos, seq, ok := st.park.next(cursor, limit, st)
		if !ok {
			return
		}
		p := st.park.take(slot, pos)
		cursor = seq + 1
		st.retrySlot, st.retryPos = slot, pos
		if st.tracer != nil {
			ev := reqEvent(p.rs, st.engine.Now(), obs.KindWake)
			ev.Group, ev.Member, ev.Replica = int(p.group), int(p.member), int(p.replica)
			ev.Function = p.rs.plan.groups[p.group][p.member].Function
			ev.Value = int64(p.mc)
			st.tracer.Emit(ev)
		}
		if st.om != nil {
			st.om.parkDepth.Set(int64(st.park.live))
		}
		st.startNode(p.rs, int(p.group), int(p.member), int(p.replica), int(p.mc), p.hit, true)
		if st.failed != nil {
			return
		}
	}
}

func (st *runState) fail(err error) {
	if st.failed == nil {
		st.failed = err
		st.engine.Stop()
	}
}
