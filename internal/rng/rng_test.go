package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds matched %d/100 draws", same)
	}
}

func TestSplitIsDeterministicAndIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("profiler")
	c2 := New(7).Split("profiler")
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Split is not deterministic for the same label")
		}
	}
	d1 := New(7).Split("adapter")
	d2 := New(7).Split("profiler")
	same := 0
	for i := 0; i < 100; i++ {
		if d1.Float64() == d2.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different labels matched %d/100 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestLogNormalMedianNearOne(t *testing.T) {
	s := New(11)
	n := 20000
	below := 0
	for i := 0; i < n; i++ {
		if s.LogNormal(0, 0.5) < 1 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("LogNormal(0,s) median fraction below 1 = %v, want ~0.5", frac)
	}
}

func TestLogNormalClippedBounds(t *testing.T) {
	s := New(13)
	for i := 0; i < 5000; i++ {
		v := s.LogNormalClipped(0, 1.5, 0.5, 2.0)
		if v < 0.5 || v > 2.0 {
			t.Fatalf("clipped lognormal %v escaped [0.5, 2.0]", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	n := 50000
	total := 0.0
	for i := 0; i < n; i++ {
		total += s.Exp(2.0)
	}
	mean := total / float64(n)
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPoissonMean(t *testing.T) {
	s := New(19)
	for _, lambda := range []float64{0.5, 4, 100} {
		n := 20000
		total := 0
		for i := 0; i < n; i++ {
			total += s.Poisson(lambda)
		}
		mean := float64(total) / float64(n)
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestPoissonNonPositive(t *testing.T) {
	if New(1).Poisson(0) != 0 || New(1).Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive lambda should be 0")
	}
}

func TestParetoLowerBound(t *testing.T) {
	s := New(23)
	for i := 0; i < 5000; i++ {
		if v := s.Pareto(1.5, 2.0); v < 1.5 {
			t.Fatalf("Pareto(1.5, 2) = %v below xm", v)
		}
	}
}

func TestTruncGeometricRangeAndSkew(t *testing.T) {
	s := New(29)
	counts := make([]int, 16)
	for i := 0; i < 30000; i++ {
		v := s.TruncGeometric(15, 0.7)
		if v < 1 || v > 15 {
			t.Fatalf("TruncGeometric out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[5] || counts[5] <= counts[14] {
		t.Fatalf("TruncGeometric not skewed toward small values: %v", counts)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	s := New(31)
	counts := [3]int{}
	n := 30000
	for i := 0; i < n; i++ {
		counts[s.Choice([]float64{1, 2, 7})]++
	}
	if frac := float64(counts[2]) / float64(n); frac < 0.65 || frac > 0.75 {
		t.Fatalf("Choice weight-7 fraction = %v, want ~0.7", frac)
	}
}

func TestChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice(nil) did not panic")
		}
	}()
	New(1).Choice(nil)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		p := New(seed).Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncGeometricPanicsOnBadMax(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TruncGeometric(0, ...) did not panic")
		}
	}()
	New(1).TruncGeometric(0, 0.5)
}

// refSplit is Split as it was before a Stream held its own generator:
// hash/fnv's FNV-1a over the parent seed's little-endian bytes and the
// label, and a freshly allocated PCG behind a freshly allocated
// rand.Rand. It is the oracle that Split and SplitInto must reproduce
// draw for draw.
func refSplit(seed uint64, label string) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	child := h.Sum64()
	ref := &Stream{seed: child}
	ref.r = *rand.New(rand.NewPCG(child, child^0x9e3779b97f4a7c15))
	return ref
}

// drawAll runs every Stream method a few times and records what each
// returns, so two streams compare over the whole API.
func drawAll(s *Stream) []float64 {
	var out []float64
	add := func(v ...float64) { out = append(out, v...) }
	for range 3 {
		add(s.Float64(), float64(s.IntN(1000)), s.Uniform(2, 5), s.NormFloat64(),
			s.Normal(3, 2), s.LogNormal(0, 0.5), s.LogNormalClipped(0, 0.8, 0.7, 1.6),
			s.Exp(2.5), s.Pareto(1, 1.5), float64(s.Poisson(3)), float64(s.Poisson(100)),
			float64(s.TruncGeometric(8, 0.6)), float64(s.Choice([]float64{0.5, 0.35, 0.15})))
		for _, v := range s.Perm(6) {
			add(float64(v))
		}
		xs := []float64{0, 1, 2, 3, 4, 5, 6}
		s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		add(xs...)
	}
	return append(out, float64(s.Seed()))
}

// TestSplitMatchesReference pins Split and SplitInto to the reference
// split over many seeds and labels: the same child seed, and the same
// first outputs from every method. SplitInto is checked into one reused
// stream, a fresh zero stream, and its own parent.
func TestSplitMatchesReference(t *testing.T) {
	labels := []string{"", "a", "arrivals", "common", "replay", "dyn", "req/0", "req/99999",
		"workload/trigger-ml", "profile/icl/b1/k1000", "mapshape/par(2)+icl+ico/ocr/b4/k3000", "ünïcode ✓"}
	reused := new(Stream)
	for seed := uint64(0); seed < 200; seed++ {
		parents := []uint64{seed, seed * 0x9e3779b97f4a7c15, ^seed}
		for _, ps := range parents {
			parent := New(ps)
			for _, label := range labels {
				want := drawAll(refSplit(ps, label))
				if got := drawAll(parent.Split(label)); !slices.Equal(got, want) {
					t.Fatalf("seed %#x label %q: Split draws %v, reference %v", ps, label, got, want)
				}
				parent.SplitInto(reused, label)
				if got := drawAll(reused); !slices.Equal(got, want) {
					t.Fatalf("seed %#x label %q: SplitInto a reused stream draws %v, reference %v", ps, label, got, want)
				}
				var zero Stream
				parent.SplitInto(&zero, label)
				if got := drawAll(&zero); !slices.Equal(got, want) {
					t.Fatalf("seed %#x label %q: SplitInto a zero stream draws %v, reference %v", ps, label, got, want)
				}
				self := New(ps)
				self.SplitInto(self, label)
				if got := drawAll(self); !slices.Equal(got, want) {
					t.Fatalf("seed %#x label %q: SplitInto its own parent draws %v, reference %v", ps, label, got, want)
				}
			}
		}
	}
}

// TestSplitIntoLeavesParent checks that splitting reads the parent
// without consuming it.
func TestSplitIntoLeavesParent(t *testing.T) {
	a, b := New(9), New(9)
	var child Stream
	a.SplitInto(&child, "x")
	a.Split("y")
	if got, want := drawAll(a), drawAll(b); !slices.Equal(got, want) {
		t.Fatalf("parent draws %v after splitting, %v untouched", got, want)
	}
}

// TestStreamAllocations pins a stream at one allocation and a reseed at
// none.
func TestStreamAllocations(t *testing.T) {
	parent := New(3)
	if n := testing.AllocsPerRun(100, func() { parent.Split("req/12345") }); n != 1 {
		t.Errorf("Split allocates %v times, want 1", n)
	}
	dst := new(Stream)
	label := []byte("req/12345")
	if n := testing.AllocsPerRun(100, func() { parent.SplitInto(dst, string(label)) }); n != 0 {
		t.Errorf("SplitInto allocates %v times, want 0", n)
	}
}
