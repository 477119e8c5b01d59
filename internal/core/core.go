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
// Deploy and DeployProfiled are only that offline pipeline. Regeneration
// (§III-D) is two halves: the adapter notifies when its miss rate crosses
// the threshold (adapter.WithRegenerateCallback), and the developer
// re-synthesizes and calls Adapter.Replace. autoscale.Regen is the one
// loop that does both on the replay's virtual clock.
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
	// SamplesPerConfig overrides the profiler's per-cell sample count.
	SamplesPerConfig int
}

// Deployment is a workflow deployed under Janus: its profiles and the live
// adapter serving the synthesized hints.
type Deployment struct {
	Workflow *workflow.Workflow
	Batch    int
	Profiles *profile.Set
	Adapter  *adapter.Adapter
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
	prof, err := profile.NewProfiler(opts.Functions, opts.Colocation, opts.Interference, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.SamplesPerConfig > 0 {
		prof.SamplesPerConfig = opts.SamplesPerConfig
	}
	set, err := prof.ProfileWorkflow(w, opts.Batch)
	if err != nil {
		return nil, err
	}
	return DeployProfiled(set, opts)
}

// DeployProfiled runs synthesis and adapter construction over existing
// profiles (reprofiling is the expensive step; sweeps reuse profiles). It
// reads only the synthesis fields of opts: Batch, Weight, Mode and
// BudgetStepMs.
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
	s, err := synth.New(synth.Config{
		Profiles:     set,
		Weight:       opts.Weight,
		Mode:         opts.Mode,
		BudgetStepMs: opts.BudgetStepMs,
	})
	if err != nil {
		return nil, err
	}
	res, err := s.GenerateBundle()
	if err != nil {
		return nil, err
	}
	a, err := adapter.New(res.Bundle)
	if err != nil {
		return nil, err
	}
	return &Deployment{Workflow: set.Workflow, Batch: opts.Batch, Profiles: set, Adapter: a}, nil
}

// Bundle returns the hints bundle the adapter serves now: the deploy-time
// synthesis until an Adapter.Replace swaps a regenerated one in.
func (d *Deployment) Bundle() *hints.Bundle { return d.Adapter.Bundle() }

// Allocator returns a platform allocator serving this deployment under the
// given display name.
func (d *Deployment) Allocator(name string) *adapter.Allocator {
	return &adapter.Allocator{Adapter: d.Adapter, System: name}
}
