// Package perfmodel provides parametric execution-time models for the
// serverless functions evaluated in the paper: the Intelligent Assistant
// chain (object detection -> question answering -> text-to-speech), the
// Video Analyze chain (frame extraction -> image classification -> image
// compression), and the four micro-benchmark functions with distinct
// dominant resource dimensions (AES encryption / Redis read / socket
// communication / disk write).
//
// A function's latency for one invocation is
//
//	latency = Base * cpu(k) * batch(c) * workingSet * interference * noise
//
// where cpu(k) = serial + (1-serial) * Ref/k is an Amdahl-style scaling
// law over allocated millicores k (more cores only compress the parallel
// fraction, which is what produces the paper's diminishing "resilience" as
// k grows, Fig 7b), batch(c) is the concurrency multiplier, workingSet is
// drawn from the input distribution (package wset), interference from the
// co-location model (package interfere), and noise is multiplicative
// lognormal jitter.
//
// The randomness of an invocation is captured once in a Draw; latency is
// then a pure function of the batch size the draw was taken at and the
// millicores, which is what lets the clairvoyant Optimal baseline
// evaluate "what would this exact request have cost at a different
// size".
package perfmodel

import (
	"fmt"
	"sort"
	"time"

	"janus/internal/interfere"
	"janus/internal/rng"
	"janus/internal/wset"
)

// Params configures a Function.
type Params struct {
	// Name identifies the function in workflows, profiles, and hints.
	Name string
	// Base is the latency at RefMillicores with working-set factor 1,
	// no co-location, and no noise.
	Base time.Duration
	// SerialFrac is the Amdahl serial fraction in [0, 1): the share of
	// Base that more CPU cannot compress.
	SerialFrac float64
	// RefMillicores is the allocation at which cpu(k) == 1.
	RefMillicores int
	// Dimension is the dominant resource demand, controlling how hard
	// co-location hits this function.
	Dimension interfere.Dimension
	// WorkingSet samples the input-size latency factor.
	WorkingSet wset.Sampler
	// NoiseSigma is the lognormal sigma of residual run-to-run jitter.
	NoiseSigma float64
	// BatchLatency maps batch size -> latency multiplier. Key 1 must be
	// present with value 1. Missing keys are unsupported batch sizes.
	BatchLatency map[int]float64
	// BatchNoise maps batch size -> additional noise sigma (batching
	// widens the latency distribution; §V-B measures QA's P99/P50 growing
	// from 2.17x to 2.32x at concurrency 2).
	BatchNoise map[int]float64
}

// Function is a validated, immutable executable-latency model.
type Function struct {
	p Params
}

// New validates params and builds a Function.
func New(p Params) (*Function, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("perfmodel: function needs a name")
	}
	if p.Base <= 0 {
		return nil, fmt.Errorf("perfmodel: %s: Base must be positive, got %v", p.Name, p.Base)
	}
	if p.SerialFrac < 0 || p.SerialFrac >= 1 {
		return nil, fmt.Errorf("perfmodel: %s: SerialFrac must be in [0,1), got %v", p.Name, p.SerialFrac)
	}
	if p.RefMillicores <= 0 {
		return nil, fmt.Errorf("perfmodel: %s: RefMillicores must be positive", p.Name)
	}
	if p.WorkingSet == nil {
		return nil, fmt.Errorf("perfmodel: %s: WorkingSet sampler required", p.Name)
	}
	if p.NoiseSigma < 0 {
		return nil, fmt.Errorf("perfmodel: %s: NoiseSigma must be >= 0", p.Name)
	}
	if p.BatchLatency == nil {
		p.BatchLatency = map[int]float64{1: 1}
	}
	if f, ok := p.BatchLatency[1]; !ok || f != 1 {
		return nil, fmt.Errorf("perfmodel: %s: BatchLatency must map 1 -> 1", p.Name)
	}
	for c, f := range p.BatchLatency {
		if c < 1 || f < 1 {
			return nil, fmt.Errorf("perfmodel: %s: invalid batch entry %d -> %v", p.Name, c, f)
		}
	}
	return &Function{p: p}, nil
}

// MustNew is New that panics on error; for package-level catalogs.
func MustNew(p Params) *Function {
	f, err := New(p)
	if err != nil {
		panic(err)
	}
	return f
}

// Name reports the function name.
func (f *Function) Name() string { return f.p.Name }

// Dimension reports the dominant resource dimension.
func (f *Function) Dimension() interfere.Dimension { return f.p.Dimension }

// WorkingSet reports the working-set sampler.
func (f *Function) WorkingSet() wset.Sampler { return f.p.WorkingSet }

// Base reports the reference latency.
func (f *Function) Base() time.Duration { return f.p.Base }

// CPUFactor returns the Amdahl latency multiplier at k millicores relative
// to RefMillicores. It panics on non-positive k.
func (f *Function) CPUFactor(millicores int) float64 {
	if millicores <= 0 {
		panic(fmt.Sprintf("perfmodel: %s: non-positive millicores %d", f.p.Name, millicores))
	}
	ratio := float64(f.p.RefMillicores) / float64(millicores)
	return f.p.SerialFrac + (1-f.p.SerialFrac)*ratio
}

// SupportsBatch reports whether the function can execute batch size c.
// Frame extraction and image compression in the VA chain are not batchable,
// which is why the paper limits VA to concurrency 1.
func (f *Function) SupportsBatch(c int) bool {
	_, ok := f.p.BatchLatency[c]
	return ok
}

// BatchSizes lists the supported batch sizes in increasing order.
func (f *Function) BatchSizes() []int {
	out := make([]int, 0, len(f.p.BatchLatency))
	for c := range f.p.BatchLatency {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// BatchFactor returns the latency multiplier at batch size c. It panics on
// unsupported sizes; call SupportsBatch first when unsure.
func (f *Function) BatchFactor(c int) float64 {
	factor, ok := f.p.BatchLatency[c]
	if !ok {
		panic(fmt.Sprintf("perfmodel: %s does not support batch size %d", f.p.Name, c))
	}
	return factor
}

// Draw captures all randomness of one invocation in 24 bytes. It does
// not record the batch size it was drawn at: the caller that drew it
// holds that once (platform.Request.Batch for a request's draws) and
// passes it back to Latency, and Latency(draw, batch, k) is then
// deterministic in k.
type Draw struct {
	// WS is the working-set factor for this input.
	WS float64
	// Slowdown is the co-location interference factor (>= 1).
	Slowdown float64
	// Noise is the residual multiplicative jitter, sampled with the
	// noise sigma of the batch size the draw was taken at.
	Noise float64
}

// NewDraw samples an invocation's randomness: its input, the interference
// it experiences with `colocated` co-located instances, and jitter.
// A nil interference model means no contention (factor 1).
func (f *Function) NewDraw(s *rng.Stream, batch, colocated int, im *interfere.Model) Draw {
	if !f.SupportsBatch(batch) {
		panic(fmt.Sprintf("perfmodel: %s does not support batch size %d", f.p.Name, batch))
	}
	slowdown := 1.0
	if im != nil {
		slowdown = im.Sample(f.p.Dimension, colocated, s)
	}
	sigma := f.p.NoiseSigma + f.p.BatchNoise[batch]
	noise := 1.0
	if sigma > 0 {
		noise = s.LogNormalClipped(0, sigma, 0.7, 1.6)
	}
	return Draw{
		WS:       f.p.WorkingSet.Sample(s),
		Slowdown: slowdown,
		Noise:    noise,
	}
}

// Latency evaluates the model for a draw at the given allocation. batch
// is the batch size the draw was taken at (NewDraw's batch): it selects
// the batch factor, and it panics on a size the function does not
// support, as BatchFactor does.
func (f *Function) Latency(d Draw, batch, millicores int) time.Duration {
	factor := f.CPUFactor(millicores) * f.BatchFactor(batch) * d.WS * d.Slowdown * d.Noise
	return time.Duration(float64(f.p.Base) * factor)
}

// Scaled returns a copy of the function with its base latency multiplied
// by factor — what-if modeling for application updates (a new model
// version that runs slower or faster) and staleness experiments.
func (f *Function) Scaled(factor float64) *Function {
	if factor <= 0 {
		panic(fmt.Sprintf("perfmodel: %s: non-positive scale factor %v", f.p.Name, factor))
	}
	p := f.p
	p.Base = time.Duration(float64(p.Base) * factor)
	return MustNew(p)
}
