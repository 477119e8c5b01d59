package replay

import (
	"math"
	"reflect"
	"testing"
	"time"

	"janus/internal/rng"
)

func testMix() []TenantShare {
	return []TenantShare{{Tenant: "ia", Weight: 2}, {Tenant: "va", Weight: 1}}
}

func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name   string
		mix    []TenantShare
		phases []Phase
	}{
		{"no phases", testMix(), nil},
		{"empty mix", nil, []Phase{Plateau(time.Second, 1)}},
		{"zero-weight mix", []TenantShare{{Tenant: "ia"}}, []Phase{Plateau(time.Second, 1)}},
		{"duplicate tenant", []TenantShare{{Tenant: "ia", Weight: 1}, {Tenant: "ia", Weight: 1}},
			[]Phase{Plateau(time.Second, 1)}},
		{"unnamed tenant", []TenantShare{{Weight: 1}}, []Phase{Plateau(time.Second, 1)}},
		{"zero duration", testMix(), []Phase{Plateau(0, 1)}},
		{"negative rate", testMix(), []Phase{Ramp(time.Second, -1, 2)}},
		{"silent phase", testMix(), []Phase{Plateau(time.Second, 0)}},
		{"bad phase mix", testMix(), []Phase{{Kind: KindPlateau, Duration: time.Second, RatePerSec: 1,
			Mix: []TenantShare{{Tenant: "x", Weight: -1}}}}},
		{"unknown kind", testMix(), []Phase{{Kind: PhaseKind(42), Duration: time.Second, RatePerSec: 1}}},
	}
	for _, tc := range cases {
		if _, err := NewSchedule(1, tc.mix, tc.phases...); err == nil {
			t.Errorf("%s: invalid schedule accepted", tc.name)
		}
	}
}

func TestPhaseRateShapes(t *testing.T) {
	d := 90 * time.Second
	ramp := Ramp(d, 2, 8)
	if got := ramp.rateAt(0); got != 2 {
		t.Errorf("ramp start rate %v", got)
	}
	if got := ramp.rateAt(d / 2); math.Abs(got-5) > 1e-9 {
		t.Errorf("ramp midpoint rate %v, want 5", got)
	}
	burst := Burst(d, 2, 12)
	if got := burst.rateAt(d / 6); got != 2 {
		t.Errorf("burst baseline rate %v", got)
	}
	if got := burst.rateAt(d / 2); got != 12 {
		t.Errorf("burst spike rate %v", got)
	}
	if got := burst.rateAt(5 * d / 6); got != 2 {
		t.Errorf("burst tail rate %v", got)
	}
	diurnal := Diurnal(d, 1, 7, 60*time.Second)
	if got := diurnal.rateAt(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("diurnal trough rate %v", got)
	}
	if got := diurnal.rateAt(30 * time.Second); math.Abs(got-7) > 1e-9 {
		t.Errorf("diurnal peak rate %v", got)
	}
	if got := diurnal.rateAt(60 * time.Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("diurnal full-period rate %v", got)
	}
	// Zero period defaults to the phase duration: exactly one cycle.
	def := Diurnal(d, 1, 7, 0)
	if got := def.rateAt(d / 2); math.Abs(got-7) > 1e-9 {
		t.Errorf("defaulted-period diurnal peak %v", got)
	}
}

func TestScheduleRateAndMix(t *testing.T) {
	phaseMix := []TenantShare{{Tenant: "va", Weight: 1}}
	s, err := NewSchedule(1, testMix(),
		Plateau(10*time.Second, 2),
		Phase{Kind: KindBurst, Duration: 30 * time.Second, RatePerSec: 2, PeakRatePerSec: 9, Mix: phaseMix},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Duration() != 40*time.Second {
		t.Fatalf("duration %v", s.Duration())
	}
	if s.PeakRatePerSec() != 9 {
		t.Fatalf("peak %v", s.PeakRatePerSec())
	}
	if got := s.RateAt(5 * time.Second); got != 2 {
		t.Errorf("plateau rate %v", got)
	}
	if got := s.RateAt(25 * time.Second); got != 9 {
		t.Errorf("burst spike rate %v", got)
	}
	if got := s.RateAt(-time.Second); got != 0 {
		t.Errorf("rate before schedule %v", got)
	}
	if got := s.RateAt(40 * time.Second); got != 0 {
		t.Errorf("rate after schedule %v", got)
	}
	if got := s.MixAt(5 * time.Second); !reflect.DeepEqual(got, testMix()) {
		t.Errorf("default mix %v", got)
	}
	if got := s.MixAt(15 * time.Second); !reflect.DeepEqual(got, phaseMix) {
		t.Errorf("phase mix override %v", got)
	}
	if s.String() == "" {
		t.Error("empty schedule rendering")
	}
}

func TestArrivalsDeterministicAndOrdered(t *testing.T) {
	mk := func() *Schedule {
		s, err := NewSchedule(7, testMix(),
			Plateau(20*time.Second, 3),
			Burst(30*time.Second, 2, 10),
			Diurnal(60*time.Second, 1, 6, 30*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk().Arrivals(), mk().Arrivals()
	if len(a) == 0 {
		t.Fatal("no arrivals")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same schedule and seed produced different streams")
	}
	for i, ar := range a {
		if ar.At < 0 || ar.At >= mk().Duration() {
			t.Fatalf("arrival %d at %v outside schedule", i, ar.At)
		}
		if i > 0 && ar.At < a[i-1].At {
			t.Fatalf("arrival %d at %v before predecessor %v", i, ar.At, a[i-1].At)
		}
		if ar.Tenant != "ia" && ar.Tenant != "va" {
			t.Fatalf("arrival %d has unknown tenant %q", i, ar.Tenant)
		}
	}
	// A different seed reshuffles the stream.
	other, err := NewSchedule(8, testMix(),
		Plateau(20*time.Second, 3),
		Burst(30*time.Second, 2, 10),
		Diurnal(60*time.Second, 1, 6, 30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, other.Arrivals()) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestArrivalsTrackRate(t *testing.T) {
	// Expected counts follow the integrated rate: a burst phase's middle
	// third must carry visibly more arrivals per second than its baseline.
	s, err := NewSchedule(3, testMix(), Burst(300*time.Second, 2, 12))
	if err != nil {
		t.Fatal(err)
	}
	var base, spike int
	for _, a := range s.Arrivals() {
		if a.At >= 100*time.Second && a.At < 200*time.Second {
			spike++
		} else {
			base++
		}
	}
	// 100 s at 12/s vs 200 s at 2/s: the spike expects 1200 vs 400.
	if spike <= base {
		t.Fatalf("burst middle third has %d arrivals vs %d outside", spike, base)
	}
	baseRate := float64(base) / 200
	spikeRate := float64(spike) / 100
	if spikeRate < 4*baseRate {
		t.Fatalf("spike rate %.2f/s not clearly above baseline %.2f/s", spikeRate, baseRate)
	}
}

func TestZipfMixAndTenantSplit(t *testing.T) {
	mix := ZipfMix("a", "b", "c")
	if len(mix) != 3 {
		t.Fatalf("mix size %d", len(mix))
	}
	if !(mix[0].Weight > mix[1].Weight && mix[1].Weight > mix[2].Weight) {
		t.Fatalf("zipf weights not decreasing: %+v", mix)
	}
	s, err := NewSchedule(5, mix, Plateau(200*time.Second, 5))
	if err != nil {
		t.Fatal(err)
	}
	arr := s.Arrivals()
	byTenant := TenantArrivalTimes(arr)
	total := 0
	for _, times := range byTenant {
		total += len(times)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatal("per-tenant arrival times out of order")
			}
		}
	}
	if total != len(arr) {
		t.Fatalf("tenant split loses arrivals: %d vs %d", total, len(arr))
	}
	if len(byTenant["a"]) <= len(byTenant["c"]) {
		t.Fatalf("zipf head tenant %d arrivals vs tail %d", len(byTenant["a"]), len(byTenant["c"]))
	}
}

// refArrivals is Arrivals as it was before it walked the phases with a
// cursor and laid out each mix's weights once: every candidate located
// its phase from the schedule's start, twice, and every accepted
// arrival built its weights afresh. It is the oracle the cursor must
// reproduce exactly.
func refArrivals(s *Schedule) []Arrival {
	root := rng.New(s.seed).Split("replay/arrivals")
	thin := root.Split("thin")
	pick := root.Split("tenant")
	var out []Arrival
	t := time.Duration(0)
	for {
		gap := thin.Exp(s.peak)
		t += time.Duration(gap * float64(time.Second))
		if t >= s.total {
			return out
		}
		if thin.Float64()*s.peak > s.RateAt(t) {
			continue
		}
		mix := s.MixAt(t)
		weights := make([]float64, len(mix))
		for i, ts := range mix {
			weights[i] = ts.Weight
		}
		out = append(out, Arrival{At: t, Tenant: mix[pick.Choice(weights)].Tenant})
	}
}

// TestArrivalsMatchReference pins Arrivals to the phase-by-phase
// reference on schedules of every phase kind, with phases that carry
// their own mix and phases that fall back to the default, and checks
// that TenantArrivalTimes sizes each tenant's slice at its count.
func TestArrivalsMatchReference(t *testing.T) {
	shifted := []TenantShare{{Tenant: "va", Weight: 3}, {Tenant: "dag", Weight: 1}}
	burst := Burst(30*time.Second, 2, 40)
	burst.Mix = shifted
	for seed := uint64(1); seed <= 5; seed++ {
		s, err := NewSchedule(seed, testMix(),
			Ramp(10*time.Second, 1, 20),
			Plateau(7*time.Millisecond, 5),
			burst,
			Diurnal(45*time.Second, 1, 15, 20*time.Second),
			Plateau(20*time.Second, 8),
		)
		if err != nil {
			t.Fatal(err)
		}
		got, want := s.Arrivals(), refArrivals(s)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %d arrivals differ from the reference's %d", seed, len(got), len(want))
		}
		for tenant, times := range TenantArrivalTimes(got) {
			if cap(times) != len(times) {
				t.Fatalf("seed %d: tenant %q holds %d instants in a slice of capacity %d", seed, tenant, len(times), cap(times))
			}
		}
	}
}
