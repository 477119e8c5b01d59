package adapter

import (
	"testing"
	"time"

	"janus/internal/hints"
)

// benchBundle builds a three-group bundle whose tables hold 64 ranges
// each over a 2 s budget span, plus four shape variants of group 1.
func benchBundle(tb testing.TB) *hints.Bundle {
	tb.Helper()
	table := func(g, startMs, widthMs int) *hints.Table {
		raw := &hints.RawTable{Suffix: g, Weight: 1}
		for i := 0; i < 64*widthMs; i++ {
			raw.Hints = append(raw.Hints, hints.Hint{
				BudgetMs:       startMs + i,
				HeadMillicores: 3000 - 25*(i/widthMs),
				HeadPercentile: 99 - i/(2*widthMs),
			})
		}
		t, err := hints.Condense(raw)
		if err != nil {
			tb.Fatal(err)
		}
		return t
	}
	b := &hints.Bundle{Workflow: "bench", Batch: 1, Weight: 1, SLOMs: 3000, MaxMillicores: 3000}
	for g := 0; g < 3; g++ {
		b.Tables = append(b.Tables, table(g, 900-300*g, 32))
	}
	b.Shaped = map[int]map[string]*hints.Table{1: {}}
	for w := 1; w <= 4; w++ {
		b.Shaped[1][shapeKeys[w-1]] = table(1, 600-40*w, 32)
	}
	if err := b.Validate(); err != nil {
		tb.Fatal(err)
	}
	return b
}

var shapeKeys = [...]string{"w=1", "w=2", "w=3", "w=4"}

// BenchmarkAdapterDecide times one decide: the adapter's bundle snapshot,
// a condensed-table lookup and the locked hit/miss bookkeeping. It cycles
// through a fixed mix of groups, shape keys (every fourth decide is
// shape-blind) and remaining budgets from below coverage to past it, so
// hits, escalating misses and above-range lookups all occur. A decide
// allocates nothing; the bench guard holds allocs/op at 0.
func BenchmarkAdapterDecide(b *testing.B) {
	a, err := New(benchBundle(b))
	if err != nil {
		b.Fatal(err)
	}
	type call struct {
		group     int
		shape     string
		remaining time.Duration
	}
	calls := make([]call, 1024)
	for i := range calls {
		c := call{group: i % 3, remaining: time.Duration(200+(i*7919)%3000) * time.Millisecond}
		if c.group == 1 && i%4 != 0 {
			c.shape = shapeKeys[i%len(shapeKeys)]
		}
		calls[i] = c
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c := calls[i%len(calls)]
		if _, err := a.DecideShaped(c.group, c.shape, c.remaining); err != nil {
			b.Fatal(err)
		}
		i++
	}
	if hits, misses, _ := a.Stats(); i >= len(calls) && (hits == 0 || misses == 0) {
		b.Fatalf("decide mix produced %d hits and %d misses; want both", hits, misses)
	}
}
