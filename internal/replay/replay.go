// Package replay generates non-stationary workload traffic for the
// serving plane: a virtual-clock, phase-based load generator in place of
// the stationary fixed-batch / constant-rate-Poisson workloads the rest of
// the experiment suite runs.
//
// A Schedule composes phases — ramp, plateau, burst, diurnal sine — each
// with its own arrival rate and its own tenant/workflow mix, and
// materializes them into one deterministic seeded arrival stream via
// thinning of the non-homogeneous Poisson process (Lewis-Shedler): draw
// candidates at the schedule's peak rate, accept each with probability
// rate(t)/peak. Tenant attribution follows the mix in force at the
// arrival instant; ZipfMix derives a heavy-tailed mix from the same
// popularity calibration the azure trace generator uses (§II-A, Fig 1a),
// so "a few tenants dominate" carries over from functions to workflows.
//
// The stream is a pure function of (schedule, seed): platform.RunReplay
// serves it identically at any worker-pool parallelism, which is what
// lets the replay experiments compare provisioning policies request for
// request.
package replay

import (
	"fmt"
	"math"
	"time"

	"janus/internal/azure"
	"janus/internal/rng"
)

// PhaseKind names a phase's rate shape.
type PhaseKind int

const (
	// KindPlateau holds a constant arrival rate.
	KindPlateau PhaseKind = iota
	// KindRamp moves linearly from RatePerSec to PeakRatePerSec.
	KindRamp
	// KindBurst holds RatePerSec except for the middle third of the
	// phase, which spikes to PeakRatePerSec — the burst-parallel square
	// wave that breaks statically sized warm pools.
	KindBurst
	// KindDiurnal oscillates sinusoidally between RatePerSec (trough) and
	// PeakRatePerSec (peak) with period Period, starting at the trough.
	KindDiurnal
)

// String names the kind for schedule rendering.
func (k PhaseKind) String() string {
	switch k {
	case KindPlateau:
		return "plateau"
	case KindRamp:
		return "ramp"
	case KindBurst:
		return "burst"
	case KindDiurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TenantShare weights one tenant in a phase's traffic mix.
type TenantShare struct {
	// Tenant names the workload stream the arrival belongs to.
	Tenant string
	// Weight is the tenant's share of arrivals, relative to the mix total.
	Weight float64
}

// Phase is one segment of a schedule.
type Phase struct {
	// Kind selects the rate shape.
	Kind PhaseKind
	// Duration is the phase length in virtual time.
	Duration time.Duration
	// RatePerSec is the phase's base arrival rate: the plateau's constant
	// rate, the ramp's start, the burst's baseline, the diurnal trough.
	RatePerSec float64
	// PeakRatePerSec is the ramp's end rate, the burst's spike, and the
	// diurnal peak; unused by plateaus.
	PeakRatePerSec float64
	// Period is the diurnal oscillation period; zero defaults to the
	// phase duration (one full cycle).
	Period time.Duration
	// Mix optionally overrides the schedule's default tenant mix for this
	// phase (a drifting mix is itself a workload shift the provider must
	// absorb).
	Mix []TenantShare
}

// Plateau returns a constant-rate phase.
func Plateau(d time.Duration, rate float64) Phase {
	return Phase{Kind: KindPlateau, Duration: d, RatePerSec: rate}
}

// Ramp returns a linear-rate phase from `from` to `to`.
func Ramp(d time.Duration, from, to float64) Phase {
	return Phase{Kind: KindRamp, Duration: d, RatePerSec: from, PeakRatePerSec: to}
}

// Burst returns a baseline-rate phase whose middle third spikes to peak.
func Burst(d time.Duration, base, peak float64) Phase {
	return Phase{Kind: KindBurst, Duration: d, RatePerSec: base, PeakRatePerSec: peak}
}

// Diurnal returns a sinusoidal phase oscillating between trough and peak
// with the given period, starting at the trough.
func Diurnal(d time.Duration, trough, peak float64, period time.Duration) Phase {
	return Phase{Kind: KindDiurnal, Duration: d, RatePerSec: trough, PeakRatePerSec: peak, Period: period}
}

// rateAt evaluates the phase's instantaneous rate at offset t into it.
func (p Phase) rateAt(t time.Duration) float64 {
	switch p.Kind {
	case KindRamp:
		u := float64(t) / float64(p.Duration)
		return p.RatePerSec + (p.PeakRatePerSec-p.RatePerSec)*u
	case KindBurst:
		if t >= p.Duration/3 && t < 2*p.Duration/3 {
			return p.PeakRatePerSec
		}
		return p.RatePerSec
	case KindDiurnal:
		period := p.Period
		if period <= 0 {
			period = p.Duration
		}
		u := float64(t) / float64(period)
		return p.RatePerSec + (p.PeakRatePerSec-p.RatePerSec)*(1-math.Cos(2*math.Pi*u))/2
	default: // KindPlateau
		return p.RatePerSec
	}
}

// peak is the phase's maximum instantaneous rate (the thinning envelope).
func (p Phase) peak() float64 {
	switch p.Kind {
	case KindPlateau:
		return p.RatePerSec
	default:
		return math.Max(p.RatePerSec, p.PeakRatePerSec)
	}
}

func (p Phase) validate(i int) error {
	if p.Duration <= 0 {
		return fmt.Errorf("replay: phase %d has non-positive duration %v", i, p.Duration)
	}
	if p.RatePerSec < 0 || p.PeakRatePerSec < 0 {
		return fmt.Errorf("replay: phase %d has a negative rate", i)
	}
	if p.peak() <= 0 {
		return fmt.Errorf("replay: phase %d never admits traffic (peak rate 0)", i)
	}
	switch p.Kind {
	case KindPlateau, KindRamp, KindBurst, KindDiurnal:
	default:
		return fmt.Errorf("replay: phase %d has unknown kind %d", i, int(p.Kind))
	}
	if p.Kind == KindDiurnal && p.Period < 0 {
		return fmt.Errorf("replay: phase %d has negative period %v", i, p.Period)
	}
	return nil
}

func validateMix(mix []TenantShare, what string) error {
	if len(mix) == 0 {
		return fmt.Errorf("replay: %s mix is empty", what)
	}
	total := 0.0
	seen := make(map[string]bool, len(mix))
	for _, ts := range mix {
		if ts.Tenant == "" {
			return fmt.Errorf("replay: %s mix has an unnamed tenant", what)
		}
		if seen[ts.Tenant] {
			return fmt.Errorf("replay: %s mix repeats tenant %q", what, ts.Tenant)
		}
		seen[ts.Tenant] = true
		if ts.Weight < 0 {
			return fmt.Errorf("replay: %s mix weights tenant %q negatively", what, ts.Tenant)
		}
		total += ts.Weight
	}
	if total <= 0 {
		return fmt.Errorf("replay: %s mix has no positive weight", what)
	}
	return nil
}

// ZipfMix spreads tenant weights by the Zipf popularity law the azure
// trace generator is calibrated to (exponent 1.15, the value at which the
// top-100 of 500 functions carry Fig 1a's 81.6% invocation share): the
// first tenant dominates, the tail thins as 1/rank^s.
func ZipfMix(tenants ...string) []TenantShare {
	s := azure.DefaultTraceConfig().ZipfS
	out := make([]TenantShare, len(tenants))
	for i, t := range tenants {
		out[i] = TenantShare{Tenant: t, Weight: 1 / math.Pow(float64(i+1), s)}
	}
	return out
}

// Schedule is a validated, immutable phase sequence with a default tenant
// mix and a seed: the complete description of one non-stationary workload.
type Schedule struct {
	phases []Phase
	mix    []TenantShare
	seed   uint64
	total  time.Duration
	peak   float64
}

// NewSchedule validates the phases and the default tenant mix (used by
// every phase without its own Mix) and builds a schedule.
func NewSchedule(seed uint64, mix []TenantShare, phases ...Phase) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("replay: schedule needs at least one phase")
	}
	if err := validateMix(mix, "default"); err != nil {
		return nil, err
	}
	s := &Schedule{mix: append([]TenantShare(nil), mix...), seed: seed}
	for i, p := range phases {
		if err := p.validate(i); err != nil {
			return nil, err
		}
		if p.Mix != nil {
			if err := validateMix(p.Mix, fmt.Sprintf("phase %d", i)); err != nil {
				return nil, err
			}
		}
		s.phases = append(s.phases, p)
		s.total += p.Duration
		if pk := p.peak(); pk > s.peak {
			s.peak = pk
		}
	}
	return s, nil
}

// Phases returns a copy of the schedule's phase sequence.
func (s *Schedule) Phases() []Phase { return append([]Phase(nil), s.phases...) }

// Duration reports the schedule's total length.
func (s *Schedule) Duration() time.Duration { return s.total }

// PeakRatePerSec reports the schedule's maximum instantaneous rate.
func (s *Schedule) PeakRatePerSec() float64 { return s.peak }

// Seed reports the seed the arrival stream is derived from.
func (s *Schedule) Seed() uint64 { return s.seed }

// phaseAt locates the phase covering schedule instant t and the offset
// into it. t must be in [0, Duration).
func (s *Schedule) phaseAt(t time.Duration) (Phase, time.Duration) {
	for _, p := range s.phases {
		if t < p.Duration {
			return p, t
		}
		t -= p.Duration
	}
	last := s.phases[len(s.phases)-1]
	return last, last.Duration
}

// RateAt evaluates the schedule's instantaneous arrival rate at t
// (requests per second across all tenants); zero outside [0, Duration).
func (s *Schedule) RateAt(t time.Duration) float64 {
	if t < 0 || t >= s.total {
		return 0
	}
	p, off := s.phaseAt(t)
	return p.rateAt(off)
}

// ExpectedArrivals integrates the schedule's rate over its duration — the
// mean of the materialized arrival count's distribution (midpoint rule at
// fine resolution; callers use it for scaling checks, not accounting).
func (s *Schedule) ExpectedArrivals() float64 {
	const steps = 4096
	total := 0.0
	for _, p := range s.phases {
		dt := p.Duration / steps
		if dt <= 0 {
			dt = 1
		}
		sec := float64(dt) / float64(time.Second)
		for t := dt / 2; t < p.Duration; t += dt {
			total += p.rateAt(t) * sec
		}
	}
	return total
}

// MixAt reports the tenant mix in force at schedule instant t.
func (s *Schedule) MixAt(t time.Duration) []TenantShare {
	if t < 0 || t >= s.total {
		return s.mix
	}
	p, _ := s.phaseAt(t)
	if p.Mix != nil {
		return p.Mix
	}
	return s.mix
}

// Arrival is one admitted request of the materialized stream.
type Arrival struct {
	// At is the admission instant on the virtual clock.
	At time.Duration
	// Tenant names the workload stream the request belongs to.
	Tenant string
}

// Arrivals materializes the schedule's deterministic arrival stream:
// candidate instants drawn as a homogeneous Poisson process at the
// schedule's peak rate, thinned by the instantaneous rate, each accepted
// arrival attributed to a tenant by the mix in force at its instant. The
// same schedule and seed always produce the same stream.
//
// Candidates only move forward, so one cursor walks the phases, and each
// mix's weights are laid out once. The output is sized for the expected
// count plus four standard deviations of the Poisson count around it.
func (s *Schedule) Arrivals() []Arrival {
	root := rng.New(s.seed).Split("replay/arrivals")
	thin := root.Split("thin")
	pick := root.Split("tenant")
	defaults := mixWeights(s.mix)
	weights := make([][]float64, len(s.phases))
	for i, p := range s.phases {
		weights[i] = defaults
		if p.Mix != nil {
			weights[i] = mixWeights(p.Mix)
		}
	}
	expected := s.ExpectedArrivals()
	out := make([]Arrival, 0, int(expected+4*math.Sqrt(expected))+1)
	// phase is the phase covering t, which starts at start.
	phase, start := 0, time.Duration(0)
	t := time.Duration(0)
	for {
		gap := thin.Exp(s.peak)
		t += time.Duration(gap * float64(time.Second))
		if t >= s.total {
			return out
		}
		for t-start >= s.phases[phase].Duration {
			start += s.phases[phase].Duration
			phase++
		}
		p := &s.phases[phase]
		if thin.Float64()*s.peak > p.rateAt(t-start) {
			continue
		}
		mix := s.mix
		if p.Mix != nil {
			mix = p.Mix
		}
		out = append(out, Arrival{At: t, Tenant: mix[pick.Choice(weights[phase])].Tenant})
	}
}

// mixWeights lays out a mix's weights in mix order, as rng.Choice takes
// them.
func mixWeights(mix []TenantShare) []float64 {
	w := make([]float64, len(mix))
	for i, ts := range mix {
		w[i] = ts.Weight
	}
	return w
}

// TenantArrivalTimes splits the stream into per-tenant admission instants,
// keyed by tenant name — the shape platform workload generation consumes.
// Each tenant's slice is allocated once, at its count.
func TenantArrivalTimes(arrivals []Arrival) map[string][]time.Duration {
	counts := make(map[string]int)
	for _, a := range arrivals {
		counts[a.Tenant]++
	}
	out := make(map[string][]time.Duration, len(counts))
	for tenant, n := range counts {
		out[tenant] = make([]time.Duration, 0, n)
	}
	for _, a := range arrivals {
		out[a.Tenant] = append(out[a.Tenant], a.At)
	}
	return out
}

// String renders the schedule for experiment headers: one line per phase.
func (s *Schedule) String() string {
	out := ""
	for i, p := range s.phases {
		if i > 0 {
			out += " | "
		}
		switch p.Kind {
		case KindPlateau:
			out += fmt.Sprintf("plateau %v @%.3g/s", p.Duration, p.RatePerSec)
		case KindRamp:
			out += fmt.Sprintf("ramp %v %.3g->%.3g/s", p.Duration, p.RatePerSec, p.PeakRatePerSec)
		case KindBurst:
			out += fmt.Sprintf("burst %v %.3g/s peak %.3g/s", p.Duration, p.RatePerSec, p.PeakRatePerSec)
		case KindDiurnal:
			period := p.Period
			if period <= 0 {
				period = p.Duration
			}
			out += fmt.Sprintf("diurnal %v %.3g..%.3g/s period %v", p.Duration, p.RatePerSec, p.PeakRatePerSec, period)
		}
	}
	return out
}
