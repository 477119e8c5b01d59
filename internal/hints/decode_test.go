package hints_test

import (
	"encoding/json"
	"testing"

	"janus/internal/catalog"
	"janus/internal/hints"
)

// TestEncodedTablesTakeDirectPath pins the decoder's fast path to the
// encoders that feed it: every table in a catalog written by json.Marshal
// (the compact form GET /v1/catalog answers and Go clients build) and by
// File.Marshal (the indented form janusctl catalog push sends and
// scripts/mkcatalog writes) must decode without falling back to
// encoding/json, so a fallback cannot hide a slowdown.
func TestEncodedTablesTakeDirectPath(t *testing.T) {
	tab := func(suffix int, ranges []hints.Range) *hints.Table {
		return &hints.Table{Workflow: "trigger-ml", Suffix: suffix, Batch: 2, Weight: 0.75, Ranges: ranges}
	}
	b := &hints.Bundle{
		Workflow: "trigger-ml", Batch: 2, Weight: 0.75, SLOMs: 2600, MaxMillicores: 3000,
		Tables: []*hints.Table{
			tab(0, []hints.Range{{StartMs: 900, EndMs: 1499, Millicores: 1200, Percentile: 99}, {StartMs: 1500, EndMs: 2600, Millicores: 700, Percentile: 95}}),
			tab(1, []hints.Range{}),
			{Workflow: "ünïcödé", Suffix: 2, Batch: 1, Weight: 1e-9},
		},
		Shaped: map[int]map[string]*hints.Table{1: {"w=3": tab(1, []hints.Range{{StartMs: 0, EndMs: 40, Millicores: 100, Percentile: 1}})}},
	}
	f := &catalog.File{Version: 2, Tenants: map[string]*catalog.Tenant{
		"acme": {APIKey: "k", Workflows: map[string]*catalog.Entry{"trigger-ml": {Bundle: b}}},
	}}
	indented, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"File.Marshal": indented, "json.Marshal": compact} {
		var doc struct {
			Tenants map[string]struct {
				Workflows map[string]struct {
					Bundle struct {
						Tables []json.RawMessage                     `json:"tables"`
						Shaped map[string]map[string]json.RawMessage `json:"shaped"`
					} `json:"bundle"`
				} `json:"workflows"`
			} `json:"tenants"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		got := doc.Tenants["acme"].Workflows["trigger-ml"].Bundle
		raws := append(got.Tables, got.Shaped["1"]["w=3"])
		want := append(append([]*hints.Table{}, b.Tables...), b.Shaped[1]["w=3"])
		if len(raws) != len(want) {
			t.Fatalf("%s: %d tables in the output, want %d", name, len(raws), len(want))
		}
		for i, raw := range raws {
			var back hints.Table
			if !back.DecodeDirect(raw) {
				t.Errorf("%s: table %d fell back to encoding/json:\n%s", name, i, raw)
				continue
			}
			if !back.Equal(want[i]) {
				t.Errorf("%s: table %d decoded to %+v, want %+v", name, i, back, *want[i])
			}
		}
	}
}
