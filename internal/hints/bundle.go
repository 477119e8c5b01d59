package hints

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"
	"unicode/utf8"

	"janus/internal/jsonscan"
)

// Bundle is everything the developer submits to the provider's adapter for
// one (workflow, batch, weight) deployment: a condensed table per
// decision group (covering the group's descendant cone — the chain
// suffix, for chains) plus the escalation ceiling for misses.
type Bundle struct {
	// Workflow names the application.
	Workflow string `json:"workflow"`
	// Batch is the concurrency level the tables cover.
	Batch int `json:"batch"`
	// Weight is the head weight W used at synthesis.
	Weight float64 `json:"weight"`
	// SLOMs is the end-to-end latency objective in milliseconds.
	SLOMs int `json:"slo_ms"`
	// MaxMillicores is the per-function escalation ceiling on table miss.
	MaxMillicores int `json:"max_millicores"`
	// Tables holds one condensed table per decision group, index ==
	// group index (== chain suffix for chains). For dynamic workflows
	// these are the conservative worst-case tables (map members at
	// maximum width) every shape-blind decision falls back to.
	Tables []*Table `json:"tables"`
	// Shaped holds a dynamic workflow's shape-variant tables, keyed by
	// decision-group index and then by the resolved-shape key the serving
	// plane reports at the group's readiness instant ("w=3" when the
	// group's map member drew width 3). Static bundles leave it nil; the
	// field is omitted from JSON then, so static bundle serde is
	// unchanged byte for byte.
	Shaped map[int]map[string]*Table `json:"shaped,omitempty"`
}

// Validate checks bundle invariants.
func (b *Bundle) Validate() error {
	if b.Workflow == "" {
		return fmt.Errorf("hints: bundle needs a workflow name")
	}
	if b.Batch < 1 {
		return fmt.Errorf("hints: bundle batch %d invalid", b.Batch)
	}
	if b.SLOMs <= 0 {
		return fmt.Errorf("hints: bundle SLO %dms invalid", b.SLOMs)
	}
	if b.MaxMillicores <= 0 {
		return fmt.Errorf("hints: bundle needs a positive escalation ceiling")
	}
	if err := checkEncodable(b.Workflow, b.Weight); err != nil {
		return err
	}
	if len(b.Tables) == 0 {
		return fmt.Errorf("hints: bundle has no tables")
	}
	for i, t := range b.Tables {
		if t == nil {
			return fmt.Errorf("hints: bundle table %d missing", i)
		}
		if t.Suffix != i {
			return fmt.Errorf("hints: bundle table %d has suffix %d", i, t.Suffix)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("hints: bundle table %d: %w", i, err)
		}
	}
	for g, variants := range b.Shaped {
		if g < 0 || g >= len(b.Tables) {
			return fmt.Errorf("hints: shaped tables for group %d, but bundle has %d groups", g, len(b.Tables))
		}
		if len(variants) == 0 {
			return fmt.Errorf("hints: empty shape-variant map for group %d", g)
		}
		for shape, t := range variants {
			if shape == "" {
				return fmt.Errorf("hints: group %d has a variant with an empty shape key", g)
			}
			if !utf8.ValidString(shape) {
				return fmt.Errorf("hints: group %d shape key %q is not valid UTF-8", g, shape)
			}
			if t == nil {
				return fmt.Errorf("hints: group %d shape %q table missing", g, shape)
			}
			if t.Suffix != g {
				return fmt.Errorf("hints: group %d shape %q table has suffix %d", g, shape, t.Suffix)
			}
			if err := t.Validate(); err != nil {
				return fmt.Errorf("hints: group %d shape %q: %w", g, shape, err)
			}
		}
	}
	return nil
}

// Equal reports whether b and o encode to the same JSON — the test that
// decides whether a catalog reload carries a running adapter over —
// without encoding either. Tables compare as Table.Equal does; nil and
// empty Tables differ, and nil and empty Shaped agree, since omitempty
// drops both.
func (b *Bundle) Equal(o *Bundle) bool {
	if b == o {
		return true
	}
	if b == nil || o == nil {
		return false
	}
	if b.Workflow != o.Workflow || b.Batch != o.Batch || math.Float64bits(b.Weight) != math.Float64bits(o.Weight) ||
		b.SLOMs != o.SLOMs || b.MaxMillicores != o.MaxMillicores ||
		(b.Tables == nil) != (o.Tables == nil) || !slices.EqualFunc(b.Tables, o.Tables, (*Table).Equal) ||
		len(b.Shaped) != len(o.Shaped) {
		return false
	}
	for g, bv := range b.Shaped {
		ov, ok := o.Shaped[g]
		if !ok || (bv == nil) != (ov == nil) || len(bv) != len(ov) {
			return false
		}
		for shape, bt := range bv {
			if ot, ok := ov[shape]; !ok || !bt.Equal(ot) {
				return false
			}
		}
	}
	return true
}

// ShapedTable returns the variant table for a (group, shape) pair, or
// false when the bundle carries no variant for it — the caller then falls
// back to the group's conservative base table.
func (b *Bundle) ShapedTable(group int, shape string) (*Table, bool) {
	t, ok := b.Shaped[group][shape]
	return t, ok
}

// Stages reports the number of decision groups covered (the chain length
// for chain workflows; the name predates the node-granular engine).
func (b *Bundle) Stages() int { return len(b.Tables) }

// SLO returns the bundle's latency objective.
func (b *Bundle) SLO() time.Duration { return time.Duration(b.SLOMs) * time.Millisecond }

// TotalRanges sums condensed table sizes across suffixes — the paper's
// "total number of hints" (Fig 8).
func (b *Bundle) TotalRanges() int {
	total := 0
	for _, t := range b.Tables {
		total += t.Size()
	}
	return total
}

// Marshal encodes the bundle for submission to the adapter service.
func (b *Bundle) Marshal() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(b)
}

// ParseBundle decodes and validates a submitted bundle. A bundle in
// encoding/json's own form (what Marshal writes, compact or indented) is
// decoded in one pass; every other input goes to json.Unmarshal
// unchanged, so what is accepted and what it decodes to are
// encoding/json's.
func ParseBundle(data []byte) (*Bundle, error) {
	s := jsonscan.New(data)
	b := new(Bundle)
	b.DecodeFrom(s)
	if !s.End() {
		b = new(Bundle)
		if err := json.Unmarshal(data, b); err != nil {
			return nil, fmt.Errorf("hints: invalid bundle JSON: %w", err)
		}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
