package catalog

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"janus/internal/hints"
)

// BundleEqual is the marshal-based bundle comparison reloads used before
// hints.Bundle.Equal replaced it, kept as the reference that Equal must
// match: two bundles are equal when they encode to identical JSON.
func BundleEqual(a, b *hints.Bundle) bool {
	da, errA := json.Marshal(a)
	db, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(da) == string(db)
}

// cloneBundle deep-copies b, keeping nil and empty slices and maps
// apart.
func cloneBundle(b *hints.Bundle) *hints.Bundle {
	cloneTable := func(t *hints.Table) *hints.Table {
		if t == nil {
			return nil
		}
		c := *t
		if t.Ranges != nil {
			c.Ranges = append([]hints.Range{}, t.Ranges...)
		}
		return &c
	}
	c := *b
	if b.Tables != nil {
		c.Tables = make([]*hints.Table, len(b.Tables))
		for i, t := range b.Tables {
			c.Tables[i] = cloneTable(t)
		}
	}
	if b.Shaped != nil {
		c.Shaped = make(map[int]map[string]*hints.Table, len(b.Shaped))
		for g, variants := range b.Shaped {
			if variants == nil {
				c.Shaped[g] = nil
				continue
			}
			c.Shaped[g] = make(map[string]*hints.Table, len(variants))
			for shape, t := range variants {
				c.Shaped[g][shape] = cloneTable(t)
			}
		}
	}
	return &c
}

// checkEqualAgrees fails unless Equal, both ways round, and the
// marshal-based reference give want for a and b.
func checkEqualAgrees(t *testing.T, name string, a, b *hints.Bundle, want bool) {
	t.Helper()
	if ref := BundleEqual(a, b); ref != want {
		t.Fatalf("%s: reference says %v, case expects %v", name, ref, want)
	}
	if got, back := a.Equal(b), b.Equal(a); got != want || back != want {
		t.Errorf("%s: Equal = %v, reversed %v; marshal-equality says %v", name, got, back, want)
	}
}

// TestBundleEqualMatchesMarshal pins hints.Bundle.Equal, the structural
// compare that decides carry-over and Diff's "bundle changed", to the
// marshal-based reference it replaced: on each named edge case and on
// random pairs drawn from a value space small enough that equal pairs
// are common.
func TestBundleEqualMatchesMarshal(t *testing.T) {
	negZero := math.Copysign(0, -1)
	base := func() *hints.Bundle {
		tab := func(suffix int, mc int) *hints.Table {
			return &hints.Table{Workflow: "dag", Suffix: suffix, Batch: 1, Weight: 1,
				Ranges: []hints.Range{{StartMs: 100, EndMs: 199, Millicores: mc, Percentile: 99}, {StartMs: 200, EndMs: 900, Millicores: mc / 2, Percentile: 90}}}
		}
		return &hints.Bundle{
			Workflow: "dag", Batch: 1, Weight: 1, SLOMs: 1000, MaxMillicores: 3000,
			Tables: []*hints.Table{tab(0, 2000), tab(1, 1600)},
			Shaped: map[int]map[string]*hints.Table{1: {"w=2": tab(1, 1200), "w=3": tab(1, 1400)}},
		}
	}
	keep := func(*hints.Bundle) {}
	// Each case applies a to one copy of the base and b to another.
	cases := []struct {
		name string
		a, b func(*hints.Bundle)
		want bool
	}{
		{"deep copy", keep, keep, true},
		{"workflow", keep, func(b *hints.Bundle) { b.Workflow = "dag2" }, false},
		{"batch", keep, func(b *hints.Bundle) { b.Batch = 2 }, false},
		{"weight", keep, func(b *hints.Bundle) { b.Weight = math.Nextafter(1, 2) }, false},
		{"slo", keep, func(b *hints.Bundle) { b.SLOMs++ }, false},
		{"ceiling", keep, func(b *hints.Bundle) { b.MaxMillicores++ }, false},
		{"table workflow", keep, func(b *hints.Bundle) { b.Tables[1].Workflow = "" }, false},
		{"table suffix", keep, func(b *hints.Bundle) { b.Tables[1].Suffix = 0 }, false},
		{"table batch", keep, func(b *hints.Bundle) { b.Tables[0].Batch = 4 }, false},
		{"table weight", keep, func(b *hints.Bundle) { b.Tables[0].Weight = 0.5 }, false},
		{"range millicores", keep, func(b *hints.Bundle) { b.Tables[1].Ranges[1].Millicores++ }, false},
		{"range percentile", keep, func(b *hints.Bundle) { b.Shaped[1]["w=3"].Ranges[0].Percentile = 98 }, false},
		{"range dropped", keep, func(b *hints.Bundle) { b.Tables[0].Ranges = b.Tables[0].Ranges[:1] }, false},
		{"nil against empty ranges", func(b *hints.Bundle) { b.Tables[0].Ranges = []hints.Range{} },
			func(b *hints.Bundle) { b.Tables[0].Ranges = nil }, false},
		{"nil against empty tables", func(b *hints.Bundle) { b.Tables = nil },
			func(b *hints.Bundle) { b.Tables = []*hints.Table{} }, false},
		{"nil table", keep, func(b *hints.Bundle) { b.Tables[1] = nil }, false},
		{"table dropped", keep, func(b *hints.Bundle) { b.Tables = b.Tables[:1] }, false},
		{"-0 against 0 bundle weight", func(b *hints.Bundle) { b.Weight = 0 },
			func(b *hints.Bundle) { b.Weight = negZero }, false},
		{"-0 against 0 table weight", func(b *hints.Bundle) { b.Tables[0].Weight = 0 },
			func(b *hints.Bundle) { b.Tables[0].Weight = negZero }, false},
		{"differing shape keys", keep, func(b *hints.Bundle) {
			b.Shaped[1]["w=4"] = b.Shaped[1]["w=3"]
			delete(b.Shaped[1], "w=3")
		}, false},
		{"extra shape key", keep, func(b *hints.Bundle) { b.Shaped[1]["w=4"] = b.Shaped[1]["w=3"] }, false},
		{"shape group moved", keep, func(b *hints.Bundle) { b.Shaped[0] = b.Shaped[1]; delete(b.Shaped, 1) }, false},
		{"shaped dropped", keep, func(b *hints.Bundle) { b.Shaped = nil }, false},
		{"nil and empty shaped", func(b *hints.Bundle) { b.Shaped = nil },
			func(b *hints.Bundle) { b.Shaped = map[int]map[string]*hints.Table{} }, true},
		{"nil against empty variants", func(b *hints.Bundle) { b.Shaped[1] = nil },
			func(b *hints.Bundle) { b.Shaped[1] = map[string]*hints.Table{} }, false},
		{"nil variant table", keep, func(b *hints.Bundle) { b.Shaped[1]["w=2"] = nil }, false},
	}
	for _, c := range cases {
		a := base()
		b := cloneBundle(a)
		c.a(a)
		c.b(b)
		checkEqualAgrees(t, c.name, a, b, c.want)
	}
	checkEqualAgrees(t, "both nil", nil, nil, true)
	checkEqualAgrees(t, "one nil", nil, base(), false)

	r := rand.New(rand.NewSource(1))
	equal := 0
	for i := 0; i < 20000; i++ {
		a, b := randomBundle(r), randomBundle(r)
		want := BundleEqual(a, b)
		if want {
			equal++
		}
		if a.Equal(b) != want {
			x, _ := json.Marshal(a)
			y, _ := json.Marshal(b)
			t.Fatalf("random pair %d: Equal = %v, marshal-equality %v\n%s\n%s", i, !want, want, x, y)
		}
	}
	if equal < 100 {
		t.Fatalf("only %d of the random pairs were equal; the sweep tests one side only", equal)
	}
}

// randomBundle draws a bundle from a value space of a few choices per
// field, nil and empty slices and maps and -0 weights included.
func randomBundle(r *rand.Rand) *hints.Bundle {
	weight := func() float64 { return []float64{1, 0, math.Copysign(0, -1)}[r.Intn(3)] }
	table := func() *hints.Table {
		if r.Intn(10) == 0 {
			return nil
		}
		t := &hints.Table{Suffix: r.Intn(2), Batch: 1, Weight: weight()}
		switch r.Intn(4) {
		case 0:
		case 1:
			t.Ranges = []hints.Range{}
		default:
			t.Ranges = []hints.Range{{StartMs: 1, EndMs: 9, Millicores: 100 * (1 + r.Intn(2)), Percentile: 99}}
		}
		return t
	}
	b := &hints.Bundle{Workflow: "w", Batch: 1, Weight: weight(), SLOMs: 100, MaxMillicores: 100}
	if r.Intn(8) == 0 {
		b.Tables = []*hints.Table{}
	} else if r.Intn(8) != 0 {
		b.Tables = []*hints.Table{table()}
	}
	switch r.Intn(4) {
	case 0:
	case 1:
		b.Shaped = map[int]map[string]*hints.Table{}
	case 2:
		b.Shaped = map[int]map[string]*hints.Table{0: nil}
	default:
		variants := map[string]*hints.Table{}
		for _, shape := range []string{"w=1", "w=2"} {
			if r.Intn(2) == 0 {
				variants[shape] = table()
			}
		}
		b.Shaped = map[int]map[string]*hints.Table{r.Intn(2): variants}
	}
	return b
}
