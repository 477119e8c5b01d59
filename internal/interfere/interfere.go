// Package interfere models performance interference from co-locating
// homogeneous function instances on the same virtual machine (§II-B of the
// paper). Commercial platforms pack instances of the same tenant — often
// the same function — onto one VM, so instances contend on the VM's shared
// resources. The paper measures the slowdown growing with the number of
// co-located instances (1 to 6) and reaching up to 8.1x, with the severity
// depending on the function's dominant resource dimension (network and
// memory bandwidth suffer most).
package interfere

import (
	"fmt"

	"janus/internal/rng"
)

// Dimension is a function's dominant resource demand.
type Dimension int

// The four resource dimensions measured in Fig 1c.
const (
	CPU Dimension = iota
	Memory
	IO
	Network
)

// String implements fmt.Stringer.
func (d Dimension) String() string {
	switch d {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case IO:
		return "io"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("dimension(%d)", int(d))
	}
}

// Model maps (dimension, co-located instance count) to a latency slowdown
// factor >= 1. The zero value is not useful; use Default.
type Model struct {
	// curves[d][n-1] is the slowdown with n co-located instances; counts
	// past a curve's end extrapolate with its last slope.
	curves map[Dimension][]float64
	// Jitter is the lognormal sigma applied on top of the curve to model
	// measurement-to-measurement contention variability.
	Jitter float64
}

// Default returns the model calibrated against Fig 1c: with six co-located
// instances the CPU-bound function slows modestly while the network-bound
// one reaches ~8.1x.
func Default() *Model {
	return &Model{
		curves: map[Dimension][]float64{
			CPU:     {1.00, 1.12, 1.30, 1.55, 1.85, 2.30},
			Memory:  {1.00, 1.35, 1.95, 2.80, 3.90, 5.20},
			IO:      {1.00, 1.45, 2.20, 3.30, 4.80, 6.50},
			Network: {1.00, 1.60, 2.60, 4.00, 5.90, 8.10},
		},
		Jitter: 0.06,
	}
}

// Slowdown returns the deterministic slowdown factor for n co-located
// instances of a function dominated by dimension d. n <= 1 means the
// instance runs alone (factor 1).
func (m *Model) Slowdown(d Dimension, n int) float64 {
	curve, ok := m.curves[d]
	if !ok {
		return 1
	}
	if n <= 1 {
		return curve[0]
	}
	if n <= len(curve) {
		return curve[n-1]
	}
	// Extrapolate linearly with the final slope for n beyond calibration.
	last := curve[len(curve)-1]
	slope := last - curve[len(curve)-2]
	return last + slope*float64(n-len(curve))
}

// Sample returns the slowdown with jitter applied from the stream.
func (m *Model) Sample(d Dimension, n int, s *rng.Stream) float64 {
	f := m.Slowdown(d, n)
	if m.Jitter > 0 && s != nil {
		f *= s.LogNormalClipped(0, m.Jitter, 0.8, 1.25)
	}
	if f < 1 {
		return 1
	}
	return f
}

// CountSampler draws a co-location count from a configured distribution.
// The offline profiler and the workload generator both draw from it, so
// profiles see the same contention mix the served requests carry.
type CountSampler struct {
	// Weights[i] is the probability weight of observing i+1 co-located
	// instances.
	Weights []float64
}

// NewCountSampler validates and builds a sampler.
func NewCountSampler(weights []float64) (*CountSampler, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("interfere: CountSampler requires weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("interfere: negative weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("interfere: weights sum to zero")
	}
	cp := make([]float64, len(weights))
	copy(cp, weights)
	return &CountSampler{Weights: cp}, nil
}

// Sample draws a co-location count in [1, len(Weights)].
func (c *CountSampler) Sample(s *rng.Stream) int {
	return s.Choice(c.Weights) + 1
}
