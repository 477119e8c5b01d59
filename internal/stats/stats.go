// Package stats provides the statistical machinery the reproduction relies
// on: empirical samples with percentile queries, online summaries, and the
// paper's slack metric.
package stats

import (
	"math"
	"sort"
	"time"
)

// Sample is a collection of observations supporting percentile queries.
// The zero value is an empty sample ready for Add.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample wraps the given values (taking ownership of the slice).
func NewSample(values []float64) *Sample {
	return &Sample{xs: values}
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// AddDuration appends a duration observation in milliseconds.
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the underlying observations in sorted order. The returned
// slice is shared; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between order statistics. It panics on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: Percentile on empty sample")
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s.sort()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// PercentileDuration returns Percentile(p) interpreted as milliseconds.
func (s *Sample) PercentileDuration(p float64) time.Duration {
	return time.Duration(s.Percentile(p) * float64(time.Millisecond))
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range s.xs {
		total += v
	}
	return total / float64(len(s.xs))
}

// Max returns the largest observation. It panics on an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		panic("stats: Max on empty sample")
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Point is one (x, cumulative fraction) coordinate of an empirical CDF.
type Point struct {
	X float64
	F float64
}

// FractionAtOrBelow reports the fraction of observations <= x.
func (s *Sample) FractionAtOrBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	idx := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(s.xs))
}

// Slack is the paper's resource-inefficiency metric: 1 - latency/slo.
// A request finishing at 40% of its SLO has slack 0.6. Latencies above the
// SLO yield negative slack.
func Slack(latency, slo time.Duration) float64 {
	if slo <= 0 {
		panic("stats: Slack requires positive SLO")
	}
	return 1 - float64(latency)/float64(slo)
}

// Summary accumulates a running mean online (Welford's update). The zero
// value is ready to use.
type Summary struct {
	n    int
	mean float64
}

// Observe adds one observation.
func (s *Summary) Observe(v float64) {
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
}

// Mean reports the running mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }
