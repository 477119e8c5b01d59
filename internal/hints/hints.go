// Package hints defines the artifact at the center of Janus's bilateral
// engagement: the hints table the developer's synthesizer produces offline
// and the provider's adapter searches online.
//
// A raw hint maps one candidate time budget (millisecond granularity) to a
// full allocation plan for a sub-workflow: the descendant cone of one
// decision group of the workflow DAG — for a chain, the classic node
// suffix. Because resource adaptation is discrete (allocations move on a
// 100-millicore grid), long runs of budgets share the same head size
// (Insight-5), and only the head field — the decided group's own
// allocation — is ever consumed at runtime (Insight-6). Condensing
// (Algorithm 2) therefore fuses runs of equal head sizes into
// <start, end, size> ranges, compressing tables by ~99% in the paper
// without losing any adaptation accuracy.
package hints

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
	"unicode/utf8"
)

// Hint is one raw synthesizer output: the optimal plan for one budget.
type Hint struct {
	// BudgetMs is the sub-workflow time budget t in milliseconds.
	BudgetMs int `json:"budget_ms"`
	// HeadMillicores is k1, the head function's allocation.
	HeadMillicores int `json:"head_millicores"`
	// HeadPercentile is the percentile p explored for the head.
	HeadPercentile int `json:"head_percentile"`
	// PlanMillicores is the full planned allocation (head first). Only
	// the head entry is binding at runtime; the rest document the plan
	// the expected-cost objective assumed.
	PlanMillicores []int `json:"plan_millicores,omitempty"`
	// ExpectedCost is the objective value (Eq. 4) of the plan.
	ExpectedCost float64 `json:"expected_cost"`
}

// RawTable is the uncondensed output of hints generation for one
// sub-workflow: the descendant cone of one decision group.
type RawTable struct {
	// Suffix is the decision-group index whose cone the table covers. The
	// name is kept from the chain era, where group i's cone is exactly
	// the suffix of the chain starting at node i.
	Suffix int `json:"suffix"`
	// Weight is the head-function weight W the hints were generated with.
	Weight float64 `json:"weight"`
	// Hints is sorted ascending by budget; budgets are unique.
	Hints []Hint `json:"hints"`
}

// Validate checks raw-table invariants.
func (rt *RawTable) Validate() error {
	if rt.Suffix < 0 {
		return fmt.Errorf("hints: negative suffix %d", rt.Suffix)
	}
	if rt.Weight <= 0 {
		return fmt.Errorf("hints: non-positive weight %v", rt.Weight)
	}
	prev := -1
	for i, h := range rt.Hints {
		if h.BudgetMs <= prev {
			return fmt.Errorf("hints: budgets not strictly increasing at index %d", i)
		}
		prev = h.BudgetMs
		if h.HeadMillicores <= 0 {
			return fmt.Errorf("hints: hint %d has non-positive head size", i)
		}
		if h.HeadPercentile < 1 || h.HeadPercentile > 99 {
			return fmt.Errorf("hints: hint %d has percentile %d outside [1, 99]", i, h.HeadPercentile)
		}
	}
	return nil
}

// Range is one condensed hints-table row: budgets in [StartMs, EndMs]
// (inclusive) provision the head function with Millicores.
type Range struct {
	StartMs    int `json:"start_ms"`
	EndMs      int `json:"end_ms"`
	Millicores int `json:"millicores"`
	// Percentile is the head percentile of the highest-budget fused hint,
	// kept for diagnostics (Table II reports it).
	Percentile int `json:"percentile"`
}

// Table is the condensed hints table for one sub-workflow (one decision
// group's descendant cone).
type Table struct {
	// Workflow names the application the table belongs to.
	Workflow string `json:"workflow"`
	// Suffix is the decision-group index whose cone the table covers
	// (the chain-suffix index for chain workflows).
	Suffix int `json:"suffix"`
	// Batch is the concurrency the table was synthesized for.
	Batch int `json:"batch"`
	// Weight is the head weight W.
	Weight float64 `json:"weight"`
	// Ranges is sorted ascending by StartMs with no overlaps.
	Ranges []Range `json:"ranges"`
}

// Condense implements Algorithm 2: sort hints by budget, then fuse adjacent
// hints sharing the head size into ranges, dropping all non-head fields.
func Condense(rt *RawTable) (*Table, error) {
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Suffix: rt.Suffix, Weight: rt.Weight}
	if len(rt.Hints) == 0 {
		return t, nil
	}
	hs := append([]Hint(nil), rt.Hints...)
	sort.Slice(hs, func(i, j int) bool { return hs[i].BudgetMs < hs[j].BudgetMs })
	cur := Range{StartMs: hs[0].BudgetMs, EndMs: hs[0].BudgetMs, Millicores: hs[0].HeadMillicores, Percentile: hs[0].HeadPercentile}
	for _, h := range hs[1:] {
		if h.HeadMillicores == cur.Millicores {
			cur.EndMs = h.BudgetMs
			cur.Percentile = h.HeadPercentile
			continue
		}
		t.Ranges = append(t.Ranges, cur)
		cur = Range{StartMs: h.BudgetMs, EndMs: h.BudgetMs, Millicores: h.HeadMillicores, Percentile: h.HeadPercentile}
	}
	t.Ranges = append(t.Ranges, cur)
	return t, nil
}

// Size reports the number of condensed ranges (the paper's "# of hints").
func (t *Table) Size() int { return len(t.Ranges) }

// MinBudgetMs reports the smallest covered budget, or false when empty.
func (t *Table) MinBudgetMs() (int, bool) {
	if len(t.Ranges) == 0 {
		return 0, false
	}
	return t.Ranges[0].StartMs, true
}

// MaxBudgetMs reports the largest covered budget, or false when empty.
func (t *Table) MaxBudgetMs() (int, bool) {
	if len(t.Ranges) == 0 {
		return 0, false
	}
	return t.Ranges[len(t.Ranges)-1].EndMs, true
}

// Lookup finds the head allocation for a remaining time budget.
//
// Budgets above the explored maximum are served by the highest range: more
// slack than Tmax only makes the cheapest plan safer. Budgets below the
// explored minimum miss — no synthesized plan can meet them, and the
// adapter escalates to maximum resources (§III-D).
func (t *Table) Lookup(budget time.Duration) (Range, bool) {
	if len(t.Ranges) == 0 {
		return Range{}, false
	}
	b := int(budget / time.Millisecond)
	if b < t.Ranges[0].StartMs {
		return Range{}, false
	}
	last := t.Ranges[len(t.Ranges)-1]
	if b >= last.EndMs {
		return last, true
	}
	// Binary search for the first range ending at or after b.
	idx := sort.Search(len(t.Ranges), func(i int) bool { return t.Ranges[i].EndMs >= b })
	r := t.Ranges[idx]
	if b >= r.StartMs {
		return r, true
	}
	// b falls in a gap between ranges: take the next (more conservative)
	// range above it.
	return r, true
}

// Validate checks condensed-table invariants.
func (t *Table) Validate() error {
	if t.Suffix < 0 {
		return fmt.Errorf("hints: negative suffix %d", t.Suffix)
	}
	if t.Weight <= 0 {
		return fmt.Errorf("hints: non-positive weight %v", t.Weight)
	}
	if err := checkEncodable(t.Workflow, t.Weight); err != nil {
		return err
	}
	prevEnd := -1
	for i, r := range t.Ranges {
		if r.StartMs > r.EndMs {
			return fmt.Errorf("hints: range %d inverted [%d, %d]", i, r.StartMs, r.EndMs)
		}
		if r.StartMs <= prevEnd {
			return fmt.Errorf("hints: range %d overlaps previous (start %d <= %d)", i, r.StartMs, prevEnd)
		}
		if r.Millicores <= 0 {
			return fmt.Errorf("hints: range %d has non-positive size", i)
		}
		prevEnd = r.EndMs
	}
	return nil
}

// checkEncodable rejects the two values encoding/json cannot write back
// as they are: a non-finite weight fails to encode at all, and every
// byte of a name that is not UTF-8 encodes as U+FFFD, so a bundle
// holding either could be served but never read back or diffed.
func checkEncodable(name string, weight float64) error {
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("hints: non-finite weight %v", weight)
	}
	if !utf8.ValidString(name) {
		return fmt.Errorf("hints: workflow name %q is not valid UTF-8", name)
	}
	return nil
}

// Equal reports whether t and o encode to the same JSON, comparing
// fields instead of encodings. Nil and empty Ranges differ (null against
// []), and weights compare bit for bit, so 0 and -0 differ as their
// encodings do. For tables that pass Validate, whose weights are finite
// and names valid UTF-8, the two meanings agree exactly.
func (t *Table) Equal(o *Table) bool {
	if t == nil || o == nil {
		return t == o
	}
	return t.Workflow == o.Workflow && t.Suffix == o.Suffix && t.Batch == o.Batch &&
		math.Float64bits(t.Weight) == math.Float64bits(o.Weight) &&
		(t.Ranges == nil) == (o.Ranges == nil) && slices.Equal(t.Ranges, o.Ranges)
}

// CompressionRatio reports 1 - condensed/raw, the paper's Fig 8 metric
// (e.g. 0.996 for IA). A raw count of zero yields zero.
func CompressionRatio(rawCount, condensedCount int) float64 {
	if rawCount == 0 {
		return 0
	}
	return 1 - float64(condensedCount)/float64(rawCount)
}
