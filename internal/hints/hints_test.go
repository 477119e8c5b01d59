package hints

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"janus/internal/rng"
)

func rawFromSizes(sizes []int) *RawTable {
	rt := &RawTable{Suffix: 0, Weight: 1}
	for i, k := range sizes {
		rt.Hints = append(rt.Hints, Hint{BudgetMs: 100 + i, HeadMillicores: k, HeadPercentile: 99})
	}
	return rt
}

func TestCondenseFusesRuns(t *testing.T) {
	rt := rawFromSizes([]int{3000, 3000, 2000, 2000, 2000, 1000})
	tab, err := Condense(rt)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Size() != 3 {
		t.Fatalf("condensed to %d ranges, want 3", tab.Size())
	}
	want := []Range{
		{StartMs: 100, EndMs: 101, Millicores: 3000, Percentile: 99},
		{StartMs: 102, EndMs: 104, Millicores: 2000, Percentile: 99},
		{StartMs: 105, EndMs: 105, Millicores: 1000, Percentile: 99},
	}
	for i, w := range want {
		if tab.Ranges[i] != w {
			t.Errorf("range %d = %+v, want %+v", i, tab.Ranges[i], w)
		}
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCondenseNonAdjacentEqualSizesStaySeparate(t *testing.T) {
	// Algorithm 2 fuses only adjacent runs: 2000 appears twice but split
	// by a 1000 run, so three ranges result.
	rt := rawFromSizes([]int{2000, 1000, 2000})
	tab, err := Condense(rt)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Size() != 3 {
		t.Fatalf("condensed to %d ranges, want 3", tab.Size())
	}
}

func TestCondenseEmpty(t *testing.T) {
	tab, err := Condense(&RawTable{Suffix: 1, Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Size() != 0 || tab.Suffix != 1 || tab.Weight != 2 {
		t.Fatalf("empty condense = %+v", tab)
	}
	if _, ok := tab.Lookup(time.Second); ok {
		t.Fatal("lookup on empty table should miss")
	}
}

func TestCondensePreservesCoverage(t *testing.T) {
	// Property: every raw budget must look up to exactly its raw head size.
	f := func(seed uint64) bool {
		st := rng.New(seed)
		n := 50 + st.IntN(200)
		sizes := make([]int, n)
		cur := 3000
		for i := range sizes {
			if st.Float64() < 0.1 && cur > 1000 {
				cur -= 100
			}
			sizes[i] = cur
		}
		rt := rawFromSizes(sizes)
		tab, err := Condense(rt)
		if err != nil {
			return false
		}
		for _, h := range rt.Hints {
			r, ok := tab.Lookup(time.Duration(h.BudgetMs) * time.Millisecond)
			if !ok || r.Millicores != h.HeadMillicores {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupBoundaries(t *testing.T) {
	tab, err := Condense(rawFromSizes([]int{3000, 3000, 1500}))
	if err != nil {
		t.Fatal(err)
	}
	// Below coverage: miss (adapter escalates to Kmax).
	if _, ok := tab.Lookup(99 * time.Millisecond); ok {
		t.Fatal("budget below table should miss")
	}
	// Above coverage: the cheapest (highest-budget) plan applies.
	r, ok := tab.Lookup(10 * time.Second)
	if !ok || r.Millicores != 1500 {
		t.Fatalf("budget above table -> %+v, %v", r, ok)
	}
	// Exact boundaries hit their own range.
	if r, _ := tab.Lookup(101 * time.Millisecond); r.Millicores != 3000 {
		t.Fatalf("boundary 101ms -> %+v", r)
	}
	if r, _ := tab.Lookup(102 * time.Millisecond); r.Millicores != 1500 {
		t.Fatalf("boundary 102ms -> %+v", r)
	}
	// Sub-millisecond budgets truncate downward (conservative).
	if _, ok := tab.Lookup(100*time.Millisecond - time.Microsecond); ok {
		t.Fatal("99.999ms should truncate to 99ms and miss")
	}
}

func TestLookupGapTakesNextRange(t *testing.T) {
	tab := &Table{
		Weight: 1,
		Ranges: []Range{
			{StartMs: 100, EndMs: 110, Millicores: 3000, Percentile: 99},
			{StartMs: 120, EndMs: 130, Millicores: 2000, Percentile: 99},
		},
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	r, ok := tab.Lookup(115 * time.Millisecond)
	if !ok || r.Millicores != 2000 {
		t.Fatalf("gap lookup -> %+v, %v; want the next range above", r, ok)
	}
}

func TestRawTableValidate(t *testing.T) {
	bad := []*RawTable{
		{Suffix: -1, Weight: 1},
		{Suffix: 0, Weight: 0},
		{Suffix: 0, Weight: 1, Hints: []Hint{{BudgetMs: 5, HeadMillicores: 100, HeadPercentile: 99}, {BudgetMs: 5, HeadMillicores: 100, HeadPercentile: 99}}},
		{Suffix: 0, Weight: 1, Hints: []Hint{{BudgetMs: 5, HeadMillicores: 0, HeadPercentile: 99}}},
		{Suffix: 0, Weight: 1, Hints: []Hint{{BudgetMs: 5, HeadMillicores: 100, HeadPercentile: 0}}},
	}
	for i, rt := range bad {
		if err := rt.Validate(); err == nil {
			t.Errorf("bad raw table %d accepted", i)
		}
	}
}

func TestTableValidate(t *testing.T) {
	bad := []*Table{
		{Suffix: -1, Weight: 1},
		{Suffix: 0, Weight: 0},
		{Suffix: 0, Weight: 1, Ranges: []Range{{StartMs: 10, EndMs: 5, Millicores: 100}}},
		{Suffix: 0, Weight: 1, Ranges: []Range{{StartMs: 0, EndMs: 10, Millicores: 100}, {StartMs: 10, EndMs: 20, Millicores: 200}}},
		{Suffix: 0, Weight: 1, Ranges: []Range{{StartMs: 0, EndMs: 10, Millicores: 0}}},
		{Suffix: 0, Weight: math.NaN()},
		{Suffix: 0, Weight: math.Inf(1)},
		{Suffix: 0, Weight: 1, Workflow: "ia\xff"},
	}
	for i, tab := range bad {
		if err := tab.Validate(); err == nil {
			t.Errorf("bad table %d accepted", i)
		}
	}
}

func TestMinMaxBudget(t *testing.T) {
	tab, err := Condense(rawFromSizes([]int{2000, 2000, 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if min, ok := tab.MinBudgetMs(); !ok || min != 100 {
		t.Fatalf("MinBudgetMs = %d, %v", min, ok)
	}
	if max, ok := tab.MaxBudgetMs(); !ok || max != 102 {
		t.Fatalf("MaxBudgetMs = %d, %v", max, ok)
	}
	empty := &Table{Weight: 1}
	if _, ok := empty.MinBudgetMs(); ok {
		t.Fatal("empty table has no min budget")
	}
	if _, ok := empty.MaxBudgetMs(); ok {
		t.Fatal("empty table has no max budget")
	}
}

func TestCompressionRatio(t *testing.T) {
	if got := CompressionRatio(1000, 4); got != 0.996 {
		t.Fatalf("CompressionRatio = %v", got)
	}
	if got := CompressionRatio(0, 4); got != 0 {
		t.Fatalf("CompressionRatio(0, _) = %v", got)
	}
}

func TestCondenseRejectsInvalid(t *testing.T) {
	if _, err := Condense(&RawTable{Suffix: 0, Weight: 0}); err == nil {
		t.Fatal("invalid raw table condensed")
	}
}

func TestCondenseDoesNotMutateInput(t *testing.T) {
	rt := &RawTable{Suffix: 0, Weight: 1, Hints: []Hint{
		{BudgetMs: 200, HeadMillicores: 1000, HeadPercentile: 99},
		{BudgetMs: 100, HeadMillicores: 2000, HeadPercentile: 99},
	}}
	// Out-of-order budgets fail validation; fix order first.
	rt.Hints[0], rt.Hints[1] = rt.Hints[1], rt.Hints[0]
	if _, err := Condense(rt); err != nil {
		t.Fatal(err)
	}
	if rt.Hints[0].BudgetMs != 100 {
		t.Fatal("Condense mutated caller hints order")
	}
}
