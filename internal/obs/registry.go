package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds pre-registered metric handles. Registration (Counter,
// Gauge, Histogram) takes a lock and may allocate; it happens at setup
// time — the serving engine registers per-tenant handles in prepareRun,
// janusd at server construction. The handles themselves are plain
// atomic integer ops, safe on hot paths and across goroutines.
//
// Snapshot is deterministic: points come out sorted by (name, labels),
// with label maps JSON-encoded in key order, so two identical runs
// produce byte-identical snapshots.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

type entry struct {
	name   string
	labels []Label // sorted by key
	kind   metricKind
	key    string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Label is one name=value metric dimension.
type Label struct{ Key, Value string }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket integer histogram: observations land in
// the first bucket whose upper bound is >= the value, or the implicit
// +Inf bucket. Bounds are fixed at registration, so Observe is a short
// predictable scan plus two atomic adds — no allocation, ever.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	total  atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// CounterSlot holds a counter resolved on its first use, for a hot path
// that must not look its counter up per call and must not register the
// series before its first count. Racing first uses may each resolve;
// resolve must return the same handle each time, as Registry.Counter
// does.
type CounterSlot struct{ c atomic.Pointer[Counter] }

// Get returns the slot's counter, calling resolve for it on first use.
func (s *CounterSlot) Get(resolve func() *Counter) *Counter {
	if c := s.c.Load(); c != nil {
		return c
	}
	c := resolve()
	s.c.Store(c)
	return c
}

// Counter returns (registering on first use) the counter for name and
// label pairs ("k1", "v1", "k2", "v2", ...).
func (r *Registry) Counter(name string, kv ...string) *Counter {
	return r.get(name, counterKind, nil, kv).c
}

// Gauge returns (registering on first use) the gauge for name+labels.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	return r.get(name, gaugeKind, nil, kv).g
}

// Histogram returns (registering on first use) the histogram for
// name+labels. Bounds must be strictly increasing upper bucket bounds;
// they are fixed by the first registration of the name and ignored on
// subsequent lookups.
func (r *Registry) Histogram(name string, bounds []int64, kv ...string) *Histogram {
	return r.get(name, histogramKind, bounds, kv).h
}

func (r *Registry) get(name string, kind metricKind, bounds []int64, kv []string) *entry {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s registered with odd label list %q", name, kv))
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0)
		sb.WriteString(l.Key)
		sb.WriteByte(1)
		sb.WriteString(l.Value)
	}
	key := sb.String()

	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	if e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v, was %v", name, kind, e.kind))
		}
		return e
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.entries[key]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v, was %v", name, kind, e.kind))
		}
		return e
	}
	e = &entry{name: name, labels: labels, kind: kind, key: key}
	switch kind {
	case counterKind:
		e.c = &Counter{}
	case gaugeKind:
		e.g = &Gauge{}
	case histogramKind:
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing: %v", name, bounds))
			}
		}
		e.h = &Histogram{bounds: append([]int64(nil), bounds...), counts: make([]atomic.Int64, len(bounds)+1)}
	}
	r.entries[key] = e
	return e
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    string `json:"le"` // upper bound, or "+Inf"
	Count int64  `json:"count"`
}

// Point is one metric sample in a snapshot. Counters and gauges carry
// Value; histograms carry Sum, Count, and cumulative Buckets.
type Point struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   int64             `json:"value,omitempty"`
	Sum     int64             `json:"sum,omitempty"`
	Count   int64             `json:"count,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Snapshot returns every registered metric, sorted by (name, labels).
func (r *Registry) Snapshot() []Point {
	entries := r.sortedEntries()
	out := make([]Point, 0, len(entries))
	for _, e := range entries {
		p := Point{Name: e.name, Kind: e.kind.String()}
		if len(e.labels) > 0 {
			p.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case counterKind:
			p.Value = e.c.Value()
		case gaugeKind:
			p.Value = e.g.Value()
		case histogramKind:
			p.Sum = e.h.Sum()
			p.Buckets = make([]Bucket, 0, len(e.h.counts))
			var cum int64
			for i := range e.h.counts {
				cum += e.h.counts[i].Load()
				le := "+Inf"
				if i < len(e.h.bounds) {
					le = fmt.Sprintf("%d", e.h.bounds[i])
				}
				p.Buckets = append(p.Buckets, Bucket{LE: le, Count: cum})
			}
			p.Count = cum
		}
		out = append(out, p)
	}
	return out
}

func (r *Registry) sortedEntries() []*entry {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return entries
}
