package interfere

import (
	"testing"
	"testing/quick"

	"janus/internal/rng"
)

// dimensions lists the four modeled dimensions in display order.
var dimensions = []Dimension{CPU, Memory, IO, Network}

func TestDefaultCurvesMatchFig1c(t *testing.T) {
	m := Default()
	// Alone, every dimension runs at factor 1.
	for _, d := range dimensions {
		if got := m.Slowdown(d, 1); got != 1 {
			t.Errorf("Slowdown(%v, 1) = %v, want 1", d, got)
		}
	}
	// The paper reports up to 8.1x at six co-located instances, with
	// network hit hardest and CPU least.
	if got := m.Slowdown(Network, 6); got != 8.1 {
		t.Errorf("Slowdown(network, 6) = %v, want 8.1", got)
	}
	if cpu := m.Slowdown(CPU, 6); cpu >= m.Slowdown(Memory, 6) {
		t.Errorf("CPU contention (%v) should be mildest", cpu)
	}
	if mem := m.Slowdown(Memory, 6); mem >= m.Slowdown(IO, 6) {
		t.Errorf("memory (%v) should contend less than IO", mem)
	}
	if io := m.Slowdown(IO, 6); io >= m.Slowdown(Network, 6) {
		t.Errorf("IO (%v) should contend less than network", io)
	}
}

func TestSlowdownMonotoneInInstances(t *testing.T) {
	m := Default()
	for _, d := range dimensions {
		prev := 0.0
		for n := 1; n <= 10; n++ {
			got := m.Slowdown(d, n)
			if got < prev {
				t.Fatalf("Slowdown(%v, %d) = %v decreased from %v", d, n, got, prev)
			}
			prev = got
		}
	}
}

func TestSlowdownExtrapolates(t *testing.T) {
	m := Default()
	at6 := m.Slowdown(Network, 6)
	at7 := m.Slowdown(Network, 7)
	at8 := m.Slowdown(Network, 8)
	if at7 <= at6 || at8-at7 != at7-at6 {
		t.Fatalf("extrapolation not linear: %v, %v, %v", at6, at7, at8)
	}
}

func TestSlowdownZeroAndNegativeInstances(t *testing.T) {
	m := Default()
	if m.Slowdown(CPU, 0) != 1 || m.Slowdown(CPU, -5) != 1 {
		t.Fatal("n <= 1 should mean no contention")
	}
}

func TestUnknownDimensionIsNeutral(t *testing.T) {
	m := Default()
	if got := m.Slowdown(Dimension(99), 6); got != 1 {
		t.Fatalf("unknown dimension slowdown = %v, want 1", got)
	}
}

func TestSampleJitterStaysNearCurve(t *testing.T) {
	m := Default()
	s := rng.New(1)
	for i := 0; i < 5000; i++ {
		f := m.Sample(Network, 6, s)
		if f < 8.1*0.8-1e-9 || f > 8.1*1.25+1e-9 {
			t.Fatalf("jittered sample %v strayed beyond clip range", f)
		}
	}
}

func TestSampleNeverBelowOne(t *testing.T) {
	m := Default()
	s := rng.New(2)
	for i := 0; i < 5000; i++ {
		if f := m.Sample(CPU, 1, s); f < 1 {
			t.Fatalf("sample %v below 1", f)
		}
	}
}

func TestSampleNilStreamIsDeterministic(t *testing.T) {
	m := Default()
	if m.Sample(IO, 3, nil) != m.Slowdown(IO, 3) {
		t.Fatal("nil stream should return the curve value")
	}
}

func TestCountSamplerValidation(t *testing.T) {
	if _, err := NewCountSampler(nil); err == nil {
		t.Error("nil weights accepted")
	}
	if _, err := NewCountSampler([]float64{0, 0}); err == nil {
		t.Error("zero-sum weights accepted")
	}
	if _, err := NewCountSampler([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestCountSamplerRange(t *testing.T) {
	cs, err := NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(3)
	counts := map[int]int{}
	for i := 0; i < 20000; i++ {
		n := cs.Sample(s)
		if n < 1 || n > 3 {
			t.Fatalf("count %d out of range", n)
		}
		counts[n]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[3] {
		t.Fatalf("count distribution not matching weights: %v", counts)
	}
}

func TestCountSamplerCopiesWeights(t *testing.T) {
	w := []float64{1, 1}
	cs, err := NewCountSampler(w)
	if err != nil {
		t.Fatal(err)
	}
	w[0] = 1e9
	s := rng.New(4)
	ones := 0
	for i := 0; i < 1000; i++ {
		if cs.Sample(s) == 1 {
			ones++
		}
	}
	if ones > 600 {
		t.Fatalf("sampler aliased caller weights: %d ones", ones)
	}
}

func TestDimensionString(t *testing.T) {
	want := map[Dimension]string{CPU: "cpu", Memory: "memory", IO: "io", Network: "network"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%v.String() = %q, want %q", int(d), d.String(), s)
		}
	}
	if Dimension(42).String() != "dimension(42)" {
		t.Error("unknown dimension string format changed")
	}
}

func TestSlowdownPropertyAtLeastOne(t *testing.T) {
	m := Default()
	f := func(d uint8, n int8) bool {
		dim := Dimension(int(d) % 4)
		return m.Slowdown(dim, int(n)) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
