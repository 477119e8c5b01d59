package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"janus/internal/rng"
)

func TestPercentileBasics(t *testing.T) {
	s := NewSample([]float64{4, 1, 3, 2, 5})
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := NewSample([]float64{0, 10})
	if got := s.Percentile(50); got != 5 {
		t.Fatalf("Percentile(50) = %v, want 5", got)
	}
	if got := s.Percentile(99); math.Abs(got-9.9) > 1e-9 {
		t.Fatalf("Percentile(99) = %v, want 9.9", got)
	}
}

func TestPercentileClampsRange(t *testing.T) {
	s := NewSample([]float64{1, 2, 3})
	if s.Percentile(-10) != 1 || s.Percentile(200) != 3 {
		t.Fatal("out-of-range percentiles should clamp to min/max")
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile on empty sample did not panic")
		}
	}()
	(&Sample{}).Percentile(50)
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		st := rng.New(seed)
		s := &Sample{}
		for i := 0; i < 100; i++ {
			s.Add(st.LogNormal(0, 1))
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddInvalidatesSortCache(t *testing.T) {
	s := NewSample([]float64{5, 1})
	_ = s.Percentile(50) // force sort
	s.Add(0)
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("min after Add = %v, want 0", got)
	}
}

func TestMeanAndMax(t *testing.T) {
	s := NewSample([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := s.Max(); got != 9 {
		t.Fatalf("Max = %v, want 9", got)
	}
}

func TestFromDurationsAndPercentileDuration(t *testing.T) {
	s := NewSample([]float64{100, 300})
	if got := s.PercentileDuration(50); got != 200*time.Millisecond {
		t.Fatalf("PercentileDuration(50) = %v, want 200ms", got)
	}
}

func TestFractionAtOrBelow(t *testing.T) {
	s := NewSample([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1}}
	for _, c := range cases {
		if got := s.FractionAtOrBelow(c.x); got != c.want {
			t.Errorf("FractionAtOrBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSlack(t *testing.T) {
	if got := Slack(900*time.Millisecond, 3*time.Second); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("Slack = %v, want 0.7", got)
	}
	if got := Slack(4*time.Second, 2*time.Second); got != -1 {
		t.Fatalf("Slack past SLO = %v, want -1", got)
	}
}

func TestSlackPanicsOnZeroSLO(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Slack with zero SLO did not panic")
		}
	}()
	Slack(time.Second, 0)
}

func TestSummaryMatchesSample(t *testing.T) {
	st := rng.New(9)
	var sum Summary
	s := &Sample{}
	for i := 0; i < 1000; i++ {
		v := st.Normal(10, 3)
		sum.Observe(v)
		s.Add(v)
	}
	if math.Abs(sum.Mean()-s.Mean()) > 1e-9 {
		t.Fatalf("Summary mean %v != sample mean %v", sum.Mean(), s.Mean())
	}
}

func TestValuesSorted(t *testing.T) {
	f := func(seed uint64) bool {
		st := rng.New(seed)
		s := &Sample{}
		for i := 0; i < 50; i++ {
			s.Add(st.Float64())
		}
		return sort.Float64sAreSorted(s.Values())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
