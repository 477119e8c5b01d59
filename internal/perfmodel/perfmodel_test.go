package perfmodel

import (
	"math"
	"strings"
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/rng"
	"janus/internal/wset"
)

func valid() Params {
	return Params{
		Name:          "f",
		Base:          100 * time.Millisecond,
		SerialFrac:    0.3,
		RefMillicores: 1000,
		WorkingSet:    wset.Constant(1),
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		errHas string
	}{
		{"empty name", func(p *Params) { p.Name = "" }, "name"},
		{"zero base", func(p *Params) { p.Base = 0 }, "Base"},
		{"negative base", func(p *Params) { p.Base = -time.Second }, "Base"},
		{"serial frac 1", func(p *Params) { p.SerialFrac = 1 }, "SerialFrac"},
		{"serial frac negative", func(p *Params) { p.SerialFrac = -0.1 }, "SerialFrac"},
		{"zero ref cores", func(p *Params) { p.RefMillicores = 0 }, "RefMillicores"},
		{"nil working set", func(p *Params) { p.WorkingSet = nil }, "WorkingSet"},
		{"negative noise", func(p *Params) { p.NoiseSigma = -1 }, "NoiseSigma"},
		{"batch 1 missing", func(p *Params) { p.BatchLatency = map[int]float64{2: 1.5} }, "BatchLatency"},
		{"batch 1 not unity", func(p *Params) { p.BatchLatency = map[int]float64{1: 1.2} }, "BatchLatency"},
		{"batch factor below 1", func(p *Params) { p.BatchLatency = map[int]float64{1: 1, 2: 0.8} }, "batch"},
		{"batch size below 1", func(p *Params) { p.BatchLatency = map[int]float64{1: 1, 0: 1.5} }, "batch"},
	}
	for _, c := range cases {
		p := valid()
		c.mutate(&p)
		_, err := New(p)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errHas)
		}
	}
}

func TestCPUFactorAmdahl(t *testing.T) {
	f := MustNew(valid()) // serial 0.3
	if got := f.CPUFactor(1000); got != 1 {
		t.Fatalf("CPUFactor(ref) = %v, want 1", got)
	}
	// At 2x cores only the parallel 70% halves: 0.3 + 0.7/2 = 0.65.
	if got := f.CPUFactor(2000); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("CPUFactor(2000) = %v, want 0.65", got)
	}
	// Diminishing returns: factor can never drop below the serial fraction.
	if got := f.CPUFactor(1000000); got < 0.3 {
		t.Fatalf("CPUFactor(huge) = %v below serial fraction", got)
	}
	// Fewer cores than reference slow the function down.
	if got := f.CPUFactor(500); got != 1.7 {
		t.Fatalf("CPUFactor(500) = %v, want 1.7", got)
	}
}

func TestCPUFactorMonotone(t *testing.T) {
	f := ObjectDetection()
	prev := f.CPUFactor(1000)
	for k := 1100; k <= 3000; k += 100 {
		cur := f.CPUFactor(k)
		if cur >= prev {
			t.Fatalf("CPUFactor(%d) = %v did not decrease from %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestCPUFactorPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CPUFactor(0) did not panic")
		}
	}()
	MustNew(valid()).CPUFactor(0)
}

func TestBatchSupport(t *testing.T) {
	od := ObjectDetection()
	if !od.SupportsBatch(1) || !od.SupportsBatch(3) {
		t.Fatal("OD should support batches 1-3")
	}
	if od.SupportsBatch(4) {
		t.Fatal("OD should not support batch 4")
	}
	fe := FrameExtraction()
	if fe.SupportsBatch(2) {
		t.Fatal("FE must not be batchable (paper limits VA to concurrency 1)")
	}
	sizes := od.BatchSizes()
	if len(sizes) != 3 || sizes[0] != 1 || sizes[2] != 3 {
		t.Fatalf("BatchSizes = %v", sizes)
	}
}

func TestBatchFactorSublinear(t *testing.T) {
	for _, f := range []*Function{ObjectDetection(), QuestionAnswering(), TextToSpeech()} {
		b2, b3 := f.BatchFactor(2), f.BatchFactor(3)
		if b2 <= 1 || b2 >= 2 {
			t.Errorf("%s: batch-2 factor %v should amortize (1 < f < 2)", f.Name(), b2)
		}
		if b3 <= b2 || b3 >= 3 {
			t.Errorf("%s: batch-3 factor %v should grow but stay below 3", f.Name(), b3)
		}
	}
}

func TestBatchFactorPanicsOnUnsupported(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BatchFactor(9) did not panic")
		}
	}()
	ObjectDetection().BatchFactor(9)
}

func TestNewDrawPanicsOnUnsupportedBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDraw with unsupported batch did not panic")
		}
	}()
	FrameExtraction().NewDraw(rng.New(1), 2, 1, nil)
}

func TestLatencyDeterministicGivenDraw(t *testing.T) {
	f := ObjectDetection()
	d := f.NewDraw(rng.New(7), 1, 2, interfere.Default())
	l1 := f.Latency(d, 1, 1500)
	l2 := f.Latency(d, 1, 1500)
	if l1 != l2 {
		t.Fatal("Latency is not deterministic for a fixed draw")
	}
}

func TestLatencyDecreasesWithCores(t *testing.T) {
	f := QuestionAnswering()
	d := f.NewDraw(rng.New(8), 1, 1, nil)
	prev := f.Latency(d, 1, 1000)
	for k := 1100; k <= 3000; k += 100 {
		cur := f.Latency(d, 1, k)
		if cur >= prev {
			t.Fatalf("Latency(%d) = %v did not decrease from %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestLatencyGrowsWithBatch(t *testing.T) {
	f := QuestionAnswering()
	s := rng.New(9)
	d := f.NewDraw(s, 1, 1, nil)
	l1, l2, l3 := f.Latency(d, 1, 2000), f.Latency(d, 2, 2000), f.Latency(d, 3, 2000)
	if !(l1 < l2 && l2 < l3) {
		t.Fatalf("latencies by batch = %v, %v, %v; want increasing", l1, l2, l3)
	}
}

func TestNewDrawNilInterferenceModel(t *testing.T) {
	f := TextToSpeech()
	d := f.NewDraw(rng.New(10), 1, 6, nil)
	if d.Slowdown != 1 {
		t.Fatalf("nil model slowdown = %v, want 1", d.Slowdown)
	}
}

func TestNewDrawInterferenceApplied(t *testing.T) {
	f := SocketComm() // network-dominant: hit hardest
	s := rng.New(11)
	im := interfere.Default()
	total := 0.0
	n := 2000
	for i := 0; i < n; i++ {
		total += f.NewDraw(s, 1, 6, im).Slowdown
	}
	mean := total / float64(n)
	if mean < 7.0 || mean > 9.2 {
		t.Fatalf("mean slowdown at 6 co-located network instances = %v, want ~8.1", mean)
	}
}

func TestCatalogComplete(t *testing.T) {
	c := Catalog()
	want := []string{"od", "qa", "ts", "fe", "icl", "ico", "aes-encrypt", "redis-read", "socket-comm", "disk-write"}
	if len(c) != len(want) {
		t.Fatalf("catalog has %d functions, want %d", len(c), len(want))
	}
	for _, n := range want {
		if c[n] == nil {
			t.Errorf("catalog missing %q", n)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("od"); err != nil {
		t.Fatalf("Lookup(od): %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup(nope) should fail")
	}
}

func TestAccessors(t *testing.T) {
	f := ObjectDetection()
	if f.Name() != "od" {
		t.Error("Name changed")
	}
	if f.Dimension() != interfere.CPU {
		t.Error("OD dimension changed")
	}
	if f.WorkingSet().Name() != "coco-objects" {
		t.Error("OD working set changed")
	}
	if f.Base() <= 0 {
		t.Error("Base not positive")
	}
}

func TestDefaultBatchLatencyWhenNil(t *testing.T) {
	f := MustNew(valid())
	if !f.SupportsBatch(1) || f.SupportsBatch(2) {
		t.Fatal("nil BatchLatency should default to batch-1 only")
	}
	if f.BatchFactor(1) != 1 {
		t.Fatal("default batch-1 factor should be 1")
	}
}

func TestScaled(t *testing.T) {
	od := ObjectDetection()
	slow := od.Scaled(1.5)
	d := od.NewDraw(rng.New(42), 1, 1, nil)
	l0, l1 := od.Latency(d, 1, 2000), slow.Latency(d, 1, 2000)
	ratio := float64(l1) / float64(l0)
	if ratio < 1.49 || ratio > 1.51 {
		t.Fatalf("Scaled(1.5) latency ratio = %v", ratio)
	}
	if od.Base() == slow.Base() {
		t.Fatal("Scaled mutated or aliased the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) did not panic")
		}
	}()
	od.Scaled(0)
}
