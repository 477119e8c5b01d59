// Package core wires Janus's three components — Profiler, Synthesizer, and
// Adapter (§III) — into the deployment pipeline a developer drives:
//
//  1. profile the workflow's functions across allocations and concurrency
//     (developer side, offline),
//  2. synthesize and condense hints tables under a weight and exploration
//     mode (developer side, offline),
//  3. hand the condensed bundle to the provider-side adapter that performs
//     the per-request runtime adaptation.
//
// The package also closes the feedback loop: when the adapter's miss rate
// crosses its threshold, the deployment re-runs profiling and synthesis
// asynchronously and swaps the new bundle in (§III-D).
package core

import (
	"fmt"

	"janus/internal/adapter"
	"janus/internal/hints"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/profile"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// Options configures a deployment end to end.
type Options struct {
	// Functions resolves workflow nodes to latency models.
	Functions map[string]*perfmodel.Function
	// Colocation and Interference describe the contention mix profiling
	// should reproduce.
	Colocation   *interfere.CountSampler
	Interference *interfere.Model
	// Seed roots the profiling streams.
	Seed uint64
	// Batch is the concurrency level to deploy for (default 1).
	Batch int
	// Weight is the synthesizer's head weight W (default 1).
	Weight float64
	// Mode selects Janus / Janus- / Janus+ (default Janus).
	Mode synth.Mode
	// BudgetStepMs is the synthesis sweep granularity (default 1 ms).
	BudgetStepMs int
	// BudgetOverrideMs optionally replaces the Eq. 3 range for suffix 0.
	BudgetOverrideMs [2]int
	// SamplesPerConfig overrides the profiler's per-cell sample count.
	SamplesPerConfig int
	// DisableRegeneration turns off the asynchronous reprofiling loop;
	// controlled experiments need bundles to stay fixed for a whole run.
	DisableRegeneration bool
}

// Deployment is a workflow deployed under Janus: its profiles, synthesized
// hints, and live adapter.
type Deployment struct {
	Workflow *workflow.Workflow
	Batch    int
	Profiles *profile.Set
	// Result is the deploy-time synthesis. A regeneration swaps a fresh
	// bundle into Adapter without touching it; Bundle returns the one
	// being served.
	Result  *synth.Result
	Adapter *adapter.Adapter

	opts Options
}

// Deploy runs the offline pipeline for a workflow and returns the live
// deployment.
func Deploy(w *workflow.Workflow, opts Options) (*Deployment, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil workflow")
	}
	if opts.Batch == 0 {
		opts.Batch = 1
	}
	prof, err := newProfiler(opts)
	if err != nil {
		return nil, err
	}
	set, err := prof.ProfileWorkflow(w, opts.Batch)
	if err != nil {
		return nil, err
	}
	return DeployProfiled(set, opts)
}

// DeployProfiled runs synthesis and adapter construction over existing
// profiles (reprofiling is the expensive step; sweeps reuse profiles).
func DeployProfiled(set *profile.Set, opts Options) (*Deployment, error) {
	if set == nil {
		return nil, fmt.Errorf("core: nil profile set")
	}
	if opts.Batch == 0 {
		opts.Batch = set.Batch
	}
	if opts.Batch != set.Batch {
		return nil, fmt.Errorf("core: options batch %d does not match profiled batch %d", opts.Batch, set.Batch)
	}
	res, err := synthesize(set, opts)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Workflow: set.Workflow,
		Batch:    opts.Batch,
		Profiles: set,
		Result:   res,
		opts:     opts,
	}
	var adapterOpts []adapter.Option
	if !opts.DisableRegeneration {
		adapterOpts = append(adapterOpts, adapter.WithRegenerateCallback(func(float64) { d.regenerate() }))
	}
	a, err := adapter.New(res.Bundle, adapterOpts...)
	if err != nil {
		return nil, err
	}
	d.Adapter = a
	return d, nil
}

// synthesize runs hints synthesis over set with the options' knobs.
func synthesize(set *profile.Set, opts Options) (*synth.Result, error) {
	s, err := synth.New(synth.Config{
		Profiles:         set,
		Weight:           opts.Weight,
		Mode:             opts.Mode,
		BudgetStepMs:     opts.BudgetStepMs,
		BudgetOverrideMs: opts.BudgetOverrideMs,
	})
	if err != nil {
		return nil, err
	}
	return s.GenerateBundle()
}

func newProfiler(opts Options) (*profile.Profiler, error) {
	prof, err := profile.NewProfiler(opts.Functions, opts.Colocation, opts.Interference, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.SamplesPerConfig > 0 {
		prof.SamplesPerConfig = opts.SamplesPerConfig
	}
	return prof, nil
}

// Bundle returns the hints bundle the adapter serves now: the deploy-time
// synthesis until a regeneration swaps a fresh one in.
func (d *Deployment) Bundle() *hints.Bundle { return d.Adapter.Bundle() }

// Allocator returns a platform allocator serving this deployment under the
// given display name.
func (d *Deployment) Allocator(name string) *adapter.Allocator {
	return &adapter.Allocator{Adapter: d.Adapter, System: name}
}

// regenerate re-runs profiling and synthesis asynchronously (it executes on
// the adapter's notification goroutine) and swaps in the fresh bundle.
// Serving continues on the old bundle meanwhile — the paper's asynchronous
// regeneration trade-off.
func (d *Deployment) regenerate() {
	opts := d.opts
	opts.Seed++ // observe fresh runtime conditions
	prof, err := newProfiler(opts)
	if err != nil {
		return
	}
	set, err := prof.ProfileWorkflow(d.Workflow, d.Batch)
	if err != nil {
		return
	}
	res, err := synthesize(set, opts)
	if err != nil {
		return
	}
	_ = d.Adapter.Replace(res.Bundle)
}
