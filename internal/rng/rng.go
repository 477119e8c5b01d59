// Package rng provides deterministic, stream-splittable random number
// generation plus the distributions used throughout the simulator.
//
// A single experiment seed fans out into named sub-streams (one per
// component, function, or request lane) so that adding a consumer never
// perturbs the draws seen by an unrelated one. That property is what keeps
// the paper's experiments reproducible run to run.
package rng

import (
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random stream. Create one with New and derive
// independent children with Split, or reseed a stream the caller owns
// with SplitInto.
//
// A Stream is one allocation: it holds its PCG state and the rand.Rand
// drawing from it, and that rand.Rand points back into the same struct.
// A copy would keep drawing from the original's state, so a Stream is
// only ever handled by pointer; go vet's copylocks check rejects a copy.
type Stream struct {
	_    noCopy
	pcg  rand.PCG
	r    rand.Rand
	seed uint64
}

// noCopy makes go vet's copylocks check flag a Stream copied by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New returns a Stream seeded with seed.
func New(seed uint64) *Stream {
	s := new(Stream)
	s.reseed(seed)
	return s
}

// reseed restarts s as New(seed) would start it.
func (s *Stream) reseed(seed uint64) {
	s.seed = seed
	s.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
	s.r = *rand.New(&s.pcg)
}

// Split derives an independent child stream from a label. The same
// (seed, label) pair always yields the same child.
func (s *Stream) Split(label string) *Stream {
	return New(splitSeed(s.seed, label))
}

// SplitInto reseeds dst as the child Split(label) would return, so a hot
// loop can reuse one stream it owns instead of allocating a child per
// label. dst may be a zero Stream; s is only read, so goroutines may
// split one shared parent into streams of their own.
func (s *Stream) SplitInto(dst *Stream, label string) {
	dst.reseed(splitSeed(s.seed, label))
}

// splitSeed is the 64-bit FNV-1a hash (hash/fnv's New64a) of seed's
// eight little-endian bytes followed by label.
func splitSeed(seed uint64, label string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= seed >> (8 * i) & 0xff
		h *= prime64
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return h
}

// Seed reports the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.r.IntN(n) }

// Uniform returns a uniform value in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// NormFloat64 returns a standard normal deviate.
func (s *Stream) NormFloat64() float64 { return s.r.NormFloat64() }

// Normal returns a normal deviate with the given mean and stddev.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// LogNormal returns exp(Normal(mu, sigma)). With mu = 0 the median is 1,
// which makes it a convenient multiplicative noise factor.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.r.NormFloat64())
}

// LogNormalClipped draws LogNormal(mu, sigma) truncated to [lo, hi] by
// resampling (falling back to clamping after a bounded number of tries).
func (s *Stream) LogNormalClipped(mu, sigma, lo, hi float64) float64 {
	for i := 0; i < 32; i++ {
		v := s.LogNormal(mu, sigma)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, s.LogNormal(mu, sigma)))
}

// Exp returns an exponential deviate with the given rate (mean 1/rate).
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp requires rate > 0")
	}
	return s.r.ExpFloat64() / rate
}

// Pareto returns a Pareto(xm, alpha) deviate: xm * U^(-1/alpha).
func (s *Stream) Pareto(xm, alpha float64) float64 {
	u := 1 - s.r.Float64() // in (0, 1]
	return xm * math.Pow(u, -1/alpha)
}

// Poisson returns a Poisson(lambda) deviate using Knuth's method for small
// lambda and a normal approximation for large lambda.
func (s *Stream) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := math.Round(s.Normal(lambda, math.Sqrt(lambda)))
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	limit := math.Exp(-lambda)
	p := 1.0
	n := 0
	for {
		p *= s.r.Float64()
		if p <= limit {
			return n
		}
		n++
	}
}

// TruncGeometric returns a value in [1, max] with P(v) proportional to
// decay^(v-1). decay in (0,1) skews toward small values, which matches the
// COCO-style "most images contain few objects" shape.
func (s *Stream) TruncGeometric(max int, decay float64) int {
	if max < 1 {
		panic("rng: TruncGeometric requires max >= 1")
	}
	total := 0.0
	w := 1.0
	for i := 1; i <= max; i++ {
		total += w
		w *= decay
	}
	u := s.r.Float64() * total
	w = 1.0
	acc := 0.0
	for i := 1; i <= max; i++ {
		acc += w
		if u < acc {
			return i
		}
		w *= decay
	}
	return max
}

// Choice returns an index in [0, len(weights)) drawn proportionally to the
// weights. It panics on an empty or non-positive-sum weight vector.
func (s *Stream) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: Choice requires positive total weight")
	}
	u := s.r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }
