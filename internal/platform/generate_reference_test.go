package platform

import (
	"fmt"
	"slices"
	"time"

	"janus/internal/perfmodel"
	"janus/internal/rng"
	"janus/internal/workflow"
)

// refGenerateWorkload is GenerateWorkload as it was before requests were
// drawn in chunks: one request at a time on the calling goroutine, every
// child stream a fresh Split, every label a fmt.Sprintf, every request's
// draws and dynamic resolution allocated on their own. It is kept,
// unchanged but for its names, the Request.Groups copy it no longer
// fills, the draws it appends into one flat slice and the draw shape it
// stamps on every request, as the oracle the chunked generator must
// reproduce exactly at any worker count.
func refGenerateWorkload(cfg WorkloadConfig) ([]*Request, error) {
	if cfg.Workflow == nil {
		return nil, fmt.Errorf("platform: workload needs a workflow")
	}
	var stages [][]workflow.Node
	shape := new(drawShape)
	for _, g := range cfg.Workflow.DecisionGroups() {
		stages = append(stages, g.Nodes)
		shape.sizes = append(shape.sizes, len(g.Nodes))
		for _, n := range g.Nodes {
			shape.fns = append(shape.fns, n.Function)
		}
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
	fns := make([][]*perfmodel.Function, len(stages))
	for s, stage := range stages {
		fns[s] = make([]*perfmodel.Function, len(stage))
		for b, n := range stage {
			f, ok := cfg.Functions[n.Function]
			if !ok {
				return nil, fmt.Errorf("platform: workflow %s references unknown function %q", cfg.Workflow.Name(), n.Function)
			}
			if !f.SupportsBatch(cfg.Batch) {
				return nil, fmt.Errorf("platform: function %s does not support batch size %d", n.Function, cfg.Batch)
			}
			fns[s][b] = f
		}
	}
	var sampler *refDynSampler
	if cfg.Workflow.IsDynamic() {
		sampler = newRefDynSampler(&cfg, cfg.N)
	}
	root := rng.New(cfg.Seed).Split("workload/" + cfg.Workflow.Name())
	arrivals := root.Split("arrivals")
	reqs := make([]*Request, cfg.N)
	at := time.Duration(0)
	for i := 0; i < cfg.N; i++ {
		switch {
		case len(cfg.Arrivals) > 0:
			at = cfg.Arrivals[i]
		case cfg.ArrivalRatePerSec > 0:
			gap := arrivals.Exp(cfg.ArrivalRatePerSec)
			at += time.Duration(gap * float64(time.Second))
		default:
			at += 5 * time.Millisecond
		}
		stream := root.Split(fmt.Sprintf("req/%d", i))
		shared := stream.Float64() < cfg.StageCorrelation
		common := stream.Split("common")
		var draws []perfmodel.Draw
		for s := range stages {
			for _, f := range fns[s] {
				drawStream := stream
				if shared {
					// Every draw replays an identical stream: comonotonic
					// inputs, contention, and jitter along the workflow.
					drawStream = common.Split("replay")
				}
				coloc := cfg.Colocation.Sample(drawStream)
				draws = append(draws, f.NewDraw(drawStream, cfg.Batch, coloc, cfg.Interference))
			}
		}
		var dyn *DynDraws
		if sampler != nil {
			// Dynamic resolutions ride a dedicated child stream, so a
			// static workflow's draw sequence is untouched and adding an
			// annotation never perturbs the base draws above.
			dyn = sampler.sample(&cfg, i, stream.Split("dyn"), common, shared)
		}
		reqs[i] = &Request{
			ID:       i,
			Workflow: cfg.Workflow,
			Draws:    draws,
			Arrival:  at,
			Batch:    cfg.Batch,
			Dyn:      dyn,
			shape:    shape,
		}
	}
	return reqs, nil
}

// refDynSampler is the sampler refGenerateWorkload resolves every
// request of a dynamic workflow from, built once per workload: the annotated steps in
// DynamicSteps order with their specs, choice weights and functions
// looked up once, the workload's DynDraws and record arenas, and the
// reusable buffers one request's counts and draws are drawn into before
// they are copied out at their exact sizes.
type refDynSampler struct {
	steps    []refDynSampleStep
	dyns     []DynDraws
	records  []dynStep
	attempts []int
	draws    []perfmodel.Draw
}

type refDynSampleStep struct {
	name string
	spec workflow.DynamicNode
	// weights are a choice step's edge weights, uniform when the spec
	// leaves them nil.
	weights []float64
	// decay is a map step's width law, DefaultMapDecay when the spec
	// leaves it zero.
	decay float64
	fn    *perfmodel.Function
}

func newRefDynSampler(cfg *WorkloadConfig, n int) *refDynSampler {
	w := cfg.Workflow
	names := w.DynamicSteps()
	s := &refDynSampler{
		steps:   make([]refDynSampleStep, len(names)),
		dyns:    make([]DynDraws, n),
		records: make([]dynStep, n*len(names)),
	}
	for i, step := range names {
		d, _ := w.Dynamic(step)
		node, _ := w.Node(step)
		ss := refDynSampleStep{name: step, spec: d, fn: cfg.Functions[node.Function]}
		if d.Choice != nil {
			ss.weights = d.Choice.Weights
			if ss.weights == nil {
				ss.weights = make([]float64, len(w.Successors(step)))
				for j := range ss.weights {
					ss.weights[j] = 1
				}
			}
		}
		if d.Map != nil {
			ss.decay = d.Map.Decay
			if ss.decay == 0 {
				ss.decay = workflow.DefaultMapDecay
			}
		}
		s.steps[i] = ss
	}
	return s
}

// sample resolves request i's dynamic shape from its seeded stream:
// taken branch per choice step, fan-out width per map step,
// failed-attempt counts per retry step, and a draw for every extra
// execution (map replicas and retry attempts) the resolution implies.
func (s *refDynSampler) sample(cfg *WorkloadConfig, i int, dynStream, common *rng.Stream, shared bool) *DynDraws {
	k := len(s.steps)
	records := s.records[i*k : (i+1)*k : (i+1)*k]
	s.attempts, s.draws = s.attempts[:0], s.draws[:0]
	for j := range s.steps {
		ss := &s.steps[j]
		rec := dynStep{name: ss.name, choice: -1, att: int32(len(s.attempts)), draw: int32(len(s.draws))}
		switch d := ss.spec; {
		case d.Choice != nil:
			rec.choice = int32(dynStream.Choice(ss.weights))
		case d.Map != nil || d.Retry != nil:
			rec.reps = 1
			if d.Map != nil {
				rec.width = int32(dynStream.TruncGeometric(d.Map.MaxWidth, ss.decay))
				rec.reps = rec.width
			}
			for range rec.reps {
				a := 0
				for d.Retry != nil && a < d.Retry.MaxRetries && dynStream.Float64() < d.Retry.FailureProb {
					a++
				}
				s.attempts = append(s.attempts, a)
			}
			for _, a := range s.attempts[rec.att:] {
				for range a + 1 {
					drawStream := dynStream
					if shared {
						drawStream = common.Split("replay")
					}
					coloc := cfg.Colocation.Sample(drawStream)
					s.draws = append(s.draws, ss.fn.NewDraw(drawStream, cfg.Batch, coloc, cfg.Interference))
				}
			}
		}
		records[j] = rec
	}
	dyn := &s.dyns[i]
	*dyn = DynDraws{steps: records, attempts: slices.Clone(s.attempts), draws: slices.Clone(s.draws)}
	return dyn
}
