package hints

import (
	"math"
	"strings"
	"testing"
	"time"
)

func validBundle() *Bundle {
	t0, _ := Condense(&RawTable{Suffix: 0, Weight: 1, Hints: []Hint{
		{BudgetMs: 2000, HeadMillicores: 3000, HeadPercentile: 99},
		{BudgetMs: 2001, HeadMillicores: 2900, HeadPercentile: 94},
	}})
	t1, _ := Condense(&RawTable{Suffix: 1, Weight: 1, Hints: []Hint{
		{BudgetMs: 1000, HeadMillicores: 2500, HeadPercentile: 99},
	}})
	return &Bundle{
		Workflow:      "ia",
		Batch:         1,
		Weight:        1,
		SLOMs:         3000,
		MaxMillicores: 3000,
		Tables:        []*Table{t0, t1},
	}
}

func TestBundleValidateOK(t *testing.T) {
	if err := validBundle().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBundleValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Bundle)
		errHas string
	}{
		{"no workflow", func(b *Bundle) { b.Workflow = "" }, "workflow"},
		{"bad batch", func(b *Bundle) { b.Batch = 0 }, "batch"},
		{"bad slo", func(b *Bundle) { b.SLOMs = 0 }, "SLO"},
		{"no ceiling", func(b *Bundle) { b.MaxMillicores = 0 }, "ceiling"},
		{"no tables", func(b *Bundle) { b.Tables = nil }, "tables"},
		{"nil table", func(b *Bundle) { b.Tables[1] = nil }, "missing"},
		{"suffix mismatch", func(b *Bundle) { b.Tables[1].Suffix = 5 }, "suffix"},
		{"invalid table", func(b *Bundle) { b.Tables[0].Ranges[0].Millicores = -1 }, "table 0"},
		{"NaN weight", func(b *Bundle) { b.Weight = math.NaN() }, "non-finite weight"},
		{"infinite weight", func(b *Bundle) { b.Weight = math.Inf(-1) }, "non-finite weight"},
		{"infinite table weight", func(b *Bundle) { b.Tables[1].Weight = math.Inf(1) }, "non-finite weight"},
		{"non-UTF-8 workflow", func(b *Bundle) { b.Workflow = "ia\xff" }, "UTF-8"},
		{"non-UTF-8 table workflow", func(b *Bundle) { b.Tables[0].Workflow = "\xfe" }, "UTF-8"},
	}
	for _, c := range cases {
		b := validBundle()
		c.mutate(b)
		err := b.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errHas)
		}
	}
}

func TestBundleAccessors(t *testing.T) {
	b := validBundle()
	if b.Stages() != 2 {
		t.Errorf("Stages = %d", b.Stages())
	}
	if b.SLO() != 3*time.Second {
		t.Errorf("SLO = %v", b.SLO())
	}
	if b.TotalRanges() != 3 {
		t.Errorf("TotalRanges = %d", b.TotalRanges())
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := validBundle()
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Workflow != "ia" || back.Stages() != 2 || back.TotalRanges() != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	r, ok := back.Tables[0].Lookup(2 * time.Second)
	if !ok || r.Millicores != 3000 {
		t.Fatalf("round-tripped lookup = %+v, %v", r, ok)
	}
}

// shapedBundle extends validBundle with one width-variant table on
// group 1: the variant covers tighter budgets than the base.
func shapedBundle() *Bundle {
	b := validBundle()
	v, _ := Condense(&RawTable{Suffix: 1, Weight: 1, Hints: []Hint{
		{BudgetMs: 600, HeadMillicores: 2800, HeadPercentile: 99},
		{BudgetMs: 601, HeadMillicores: 1800, HeadPercentile: 99},
	}})
	b.Shaped = map[int]map[string]*Table{1: {"w=1": v}}
	return b
}

func TestBundleShapedValidation(t *testing.T) {
	if err := shapedBundle().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Bundle)
		errHas string
	}{
		{"group out of range", func(b *Bundle) { b.Shaped[9] = b.Shaped[1]; delete(b.Shaped, 1) }, "group 9"},
		{"empty variant map", func(b *Bundle) { b.Shaped[1] = map[string]*Table{} }, "empty shape-variant"},
		{"empty shape key", func(b *Bundle) { b.Shaped[1][""] = b.Shaped[1]["w=1"]; delete(b.Shaped[1], "w=1") }, "empty shape key"},
		{"nil variant table", func(b *Bundle) { b.Shaped[1]["w=1"] = nil }, "missing"},
		{"variant suffix mismatch", func(b *Bundle) { b.Shaped[1]["w=1"].Suffix = 0 }, "suffix"},
		{"invalid variant table", func(b *Bundle) { b.Shaped[1]["w=1"].Ranges[0].Millicores = -1 }, "shape"},
		{"non-UTF-8 shape key", func(b *Bundle) { b.Shaped[1]["w=\xff"] = b.Shaped[1]["w=1"]; delete(b.Shaped[1], "w=1") }, "UTF-8"},
		{"NaN variant weight", func(b *Bundle) { b.Shaped[1]["w=1"].Weight = math.NaN() }, "non-finite weight"},
	}
	for _, c := range cases {
		b := shapedBundle()
		c.mutate(b)
		err := b.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errHas)
		}
	}
}

func TestShapedTableLookupAndRoundTrip(t *testing.T) {
	b := shapedBundle()
	if _, ok := b.ShapedTable(1, "w=2"); ok {
		t.Fatal("unknown shape reported covered")
	}
	if _, ok := b.ShapedTable(0, "w=1"); ok {
		t.Fatal("shape on unshaped group reported covered")
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := back.ShapedTable(1, "w=1")
	if !ok {
		t.Fatal("round trip lost the shaped table")
	}
	r, ok := v.Lookup(601 * time.Millisecond)
	if !ok || r.Millicores != 1800 {
		t.Fatalf("round-tripped shaped lookup = %+v, %v", r, ok)
	}
}

// TestStaticBundleSerdeUnchanged pins the additive-field claim: a bundle
// without shaped tables marshals without any trace of the new field, so
// static bundles' wire format is exactly what it was before dynamic
// orchestration existed.
func TestStaticBundleSerdeUnchanged(t *testing.T) {
	data, err := validBundle().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "shaped") {
		t.Fatalf("static bundle JSON mentions shaped tables: %s", data)
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	b := validBundle()
	b.Workflow = ""
	if _, err := b.Marshal(); err == nil {
		t.Fatal("invalid bundle marshaled")
	}
}

func TestParseBundleRejectsBadData(t *testing.T) {
	if _, err := ParseBundle([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ParseBundle([]byte(`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":3,"weight":1}]}`)); err == nil {
		t.Error("suffix-mismatched bundle accepted")
	}
}
