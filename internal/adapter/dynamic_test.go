package adapter

import (
	"testing"
	"time"

	"janus/internal/hints"
)

// shapedBundle extends the test bundle with a width-variant table on
// group 1 covering budgets the conservative base misses on.
func shapedBundle(t *testing.T) *hints.Bundle {
	t.Helper()
	b := bundle(t)
	v, err := hints.Condense(&hints.RawTable{Suffix: 1, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 400, HeadMillicores: 2600, HeadPercentile: 99},
		{BudgetMs: 401, HeadMillicores: 1200, HeadPercentile: 95},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b.Shaped = map[int]map[string]*hints.Table{1: {"w=1": v}}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecideShaped(t *testing.T) {
	a, err := New(shapedBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	// A resolved shape with a variant table answers from the variant:
	// 500ms is below the base table's floor (1000ms) but inside w=1's.
	d, err := a.DecideShaped(1, "w=1", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.Millicores != 1200 || d.Percentile != 95 {
		t.Fatalf("shaped decision = %+v", d)
	}
	// An empty shape falls back to the base table, which misses here.
	d, err = a.DecideShaped(1, "", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.Millicores != 3000 {
		t.Fatalf("shapeless decision = %+v", d)
	}
	// An unknown shape key falls back to the base table too.
	d, err = a.DecideShaped(1, "w=7", 1000*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.Millicores != 1500 {
		t.Fatalf("unknown-shape decision = %+v", d)
	}
	// A budget below even the variant's floor escalates to the ceiling.
	d, err = a.DecideShaped(1, "w=1", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.Millicores != 3000 {
		t.Fatalf("shaped miss = %+v", d)
	}
	// Shaped decisions feed the same hit/miss accounting as Decide.
	hits, misses, _ := a.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats after shaped decisions = %d hits, %d misses", hits, misses)
	}
}

func TestDecideShapedStaticBundle(t *testing.T) {
	a, err := New(bundle(t))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := a.DecideShaped(0, "w=3", 2003*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Decide(0, 2003*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ds != d {
		t.Fatalf("static bundle: DecideShaped %+v != Decide %+v", ds, d)
	}
	for _, shape := range []string{"", "w=3"} {
		if _, err := a.DecideShaped(9, shape, time.Second); err == nil {
			t.Fatalf("out-of-range group accepted with shape %q", shape)
		}
	}
}

func TestAllocateShapedAndShapeBlind(t *testing.T) {
	a, err := New(shapedBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	al := &Allocator{Adapter: a, System: "janus"}
	mc, hit := al.AllocateShaped(nil, 1, "w=1", 500*time.Millisecond)
	if mc != 1200 || !hit {
		t.Fatalf("AllocateShaped = %d, %v", mc, hit)
	}
	// The shape-blind arm withholds the resolved shape: same call, same
	// bundle, worst-case answer — here an escalated miss.
	blind := &Allocator{Adapter: a, System: "janus-blind", ShapeBlind: true}
	mc, hit = blind.AllocateShaped(nil, 1, "w=1", 500*time.Millisecond)
	if mc != 3000 || hit {
		t.Fatalf("shape-blind AllocateShaped = %d, %v", mc, hit)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range group did not panic")
		}
	}()
	al.AllocateShaped(nil, 9, "", time.Second)
}
