package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"janus/internal/adapter"
	"janus/internal/obs"
	"janus/internal/platform"
	"janus/internal/synth"
)

// ledger is the traced run's layer accounting. Coarse calls (profiling,
// synthesis, stream generation, RunReplay) are spans kept in memory and
// written out at the end; per-decision and per-tick calls keep only a
// count and a total. A nil *ledger is the untraced run: every method is a
// no-op and no wrapper is installed.
type ledger struct {
	origin time.Time
	spans  []span
	open   []int

	adapter   tally // Allocate + AllocateShaped + RecordCached
	memo      int64 // RecordCached calls: decisions served from the platform's memo
	targets   tally // PoolController.Targets
	onTick    tally // OnTick, including the synthesis it triggers
	rawHints  int64
	regenKeys map[string]bool // distinct tenant/floor pairs regenerated
	regens    int64
}

// tally is a per-call layer's count and total wall time.
type tally struct {
	n int64
	d time.Duration
}

func (t *tally) add(start time.Time) {
	t.n++
	t.d += time.Since(start)
}

// span is one coarse layer call.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus nested spans
}

func newLedger() *ledger {
	return &ledger{origin: time.Now(), regenKeys: map[string]bool{}}
}

// begin opens a span and returns the function that closes it.
func (l *ledger) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: time.Since(l.origin).Seconds()})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].End = time.Since(l.origin).Seconds()
		l.open = l.open[:len(l.open)-1]
	}
}

// selfTimes fills every span's self time: its duration minus the part
// its direct children cover (children never overlap on this one
// goroutine).
func (l *ledger) selfTimes() {
	for i := range l.spans {
		l.spans[i].Self = l.spans[i].End - l.spans[i].Start
	}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			l.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// sum totals the durations of the spans named name; under, when not
// empty, restricts it to spans nested directly in a span of that name.
func (l *ledger) sum(name, under string) (n int, d float64) {
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		if under != "" && (s.Parent < 0 || l.spans[s.Parent].Name != under) {
			continue
		}
		n++
		d += s.End - s.Start
	}
	return n, d
}

// writeSpans writes the spans as JSON lines.
func (l *ledger) writeSpans(w io.Writer) error {
	l.selfTimes()
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func (l *ledger) synthesized(res *synth.Result) {
	if l == nil {
		return
	}
	for _, n := range res.RawCounts {
		l.rawHints += int64(n)
	}
}

func (l *ledger) regenerated(tenant string, floorMs int) {
	if l == nil {
		return
	}
	l.regens++
	l.regenKeys[fmt.Sprintf("%s/%d", tenant, floorMs)] = true
}

// timedAllocator times every decision the serving plane asks of the
// adapter. It forwards both optional contracts of the wrapped
// *adapter.Allocator: platform.MemoizableAllocator (dropping it would
// silently turn off the platform's decision memo) and
// platform.ShapeAwareAllocator (dropping it would make dynamic workflows
// shape-blind). TestWrappersPreserveTraces pins both.
type timedAllocator struct {
	inner *adapter.Allocator
	l     *ledger
}

var (
	_ platform.MemoizableAllocator = (*timedAllocator)(nil)
	_ platform.ShapeAwareAllocator = (*timedAllocator)(nil)
)

func (l *ledger) wrapAllocator(a *adapter.Allocator) platform.Allocator {
	if l == nil {
		return a
	}
	return &timedAllocator{inner: a, l: l}
}

func (t *timedAllocator) Name() string { return t.inner.Name() }

func (t *timedAllocator) Allocate(req *platform.Request, group int, remaining time.Duration) (int, bool) {
	start := time.Now()
	mc, hit := t.inner.Allocate(req, group, remaining)
	t.l.adapter.add(start)
	return mc, hit
}

func (t *timedAllocator) AllocateShaped(req *platform.Request, group int, shape string, remaining time.Duration) (int, bool) {
	start := time.Now()
	mc, hit := t.inner.AllocateShaped(req, group, shape, remaining)
	t.l.adapter.add(start)
	return mc, hit
}

func (t *timedAllocator) AllocEpoch() int64 { return t.inner.AllocEpoch() }

func (t *timedAllocator) RecordCached(group int, remaining time.Duration, epoch int64, hit bool) {
	start := time.Now()
	t.inner.RecordCached(group, remaining, epoch, hit)
	t.l.adapter.add(start)
	t.l.memo++
}

// timedController times the autoscaler's per-tick retargeting.
type timedController struct {
	inner platform.PoolController
	l     *ledger
}

func (l *ledger) wrapController(c platform.PoolController) platform.PoolController {
	if l == nil {
		return c
	}
	return &timedController{inner: c, l: l}
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Targets(now time.Duration, stats []platform.ReplayFunctionStats) map[string]int {
	start := time.Now()
	out := c.inner.Targets(now, stats)
	c.l.targets.add(start)
	return out
}

func (l *ledger) wrapOnTick(fn func(time.Duration) []platform.ReplayAction) func(time.Duration) []platform.ReplayAction {
	if l == nil {
		return fn
	}
	return func(now time.Duration) []platform.ReplayAction {
		start := time.Now()
		acts := fn(now)
		l.onTick.add(start)
		return acts
	}
}

// parkKey identifies one parked acquisition: the request's node replica.
type parkKey struct {
	tenant                          string
	request, group, member, replica int
}

// countingTracer is the traced run's obs.Tracer: per-kind event counts,
// cold acquisitions, and the simulated wait from each park to its wake.
type countingTracer struct {
	kinds   map[obs.Kind]int64
	cold    int64
	parked  map[parkKey]time.Duration
	waitSum time.Duration
}

func newCountingTracer() *countingTracer {
	return &countingTracer{kinds: map[obs.Kind]int64{}, parked: map[parkKey]time.Duration{}}
}

func (c *countingTracer) Emit(ev obs.Event) {
	c.kinds[ev.Kind]++
	switch ev.Kind {
	case obs.KindAcquire:
		if ev.Flag {
			c.cold++
		}
	case obs.KindPark:
		c.parked[parkKey{ev.Tenant, ev.Request, ev.Group, ev.Member, ev.Replica}] = ev.At
	case obs.KindWake:
		k := parkKey{ev.Tenant, ev.Request, ev.Group, ev.Member, ev.Replica}
		if at, ok := c.parked[k]; ok {
			c.waitSum += ev.At - at
			delete(c.parked, k)
		}
	}
}

func (c *countingTracer) events() int64 {
	var n int64
	for _, v := range c.kinds {
		n += v
	}
	return n
}

// metricSet is the run's output: name → value with unit, printed in
// name order.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// print writes the ledger table: one name, value, and unit per line.
func (m metricSet) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
