package catalog

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"janus/internal/adapter"
	"janus/internal/hints"
	"janus/internal/obs"
)

// Registry is the runtime half of the control plane: the currently
// served catalog, resolved to live adapters and admission buckets, held
// behind one atomic pointer. Reads (authentication, adapter lookup,
// admission) are lock-free snapshots; Load builds a complete replacement
// state and swaps it in with a single Store, generalizing the adapter's
// per-bundle atomic Replace to the whole catalog.
//
// Swap semantics: a reload lands all-or-nothing. Every fallible step —
// parsing, validation of every bundle, quota, and key — happens before
// any running state is touched, so a rejected catalog leaves the
// registry exactly as it was. Requests in flight across a swap resolved
// their tenant from one state pointer and complete against it; adapters
// for (tenant, workflow) pairs whose bundle is unchanged are carried
// into the new state by pointer, so their supervisor statistics and
// epoch windows flow through a reload untouched, and admission buckets
// carry their fill level whenever the quota declaration is unchanged —
// a reload is not a way to dodge a rate limit.
type Registry struct {
	// swapMu serializes writers (Load, Deploy). Readers never take it.
	swapMu sync.Mutex
	state  atomic.Pointer[state]
	opts   []adapter.Option
}

// state is one immutable resolved catalog generation.
type state struct {
	file    *File
	gen     int64
	tenants map[string]*RuntimeTenant
	byKey   map[string]*RuntimeTenant
	open    *RuntimeTenant // the tenant with no api_key, if any
}

// RuntimeTenant is one tenant's live serving state: its deployments and
// its admission bucket. Instances are shared across registry generations
// when carry-over applies, never mutated structurally after build.
type RuntimeTenant struct {
	name        string
	quota       *Quota
	bucket      *bucket // nil means unlimited
	deployments map[string]*Deployment
}

// Deployment is one (tenant, workflow) pair's live adapter and the
// decide counters a server keeps for the pair. A reload that keeps the
// pair keeps its Deployment, so the counters travel with the adapter
// and are resolved once, on the pair's first hit and first miss, rather
// than on every decide or every reload.
type Deployment struct {
	adapter *adapter.Adapter
	// Hits and Misses are the pair's decide counters.
	Hits, Misses obs.CounterSlot
}

// Adapter returns the pair's live adapter.
func (d *Deployment) Adapter() *adapter.Adapter { return d.adapter }

// NewRegistry builds an empty registry; opts apply to every adapter it
// creates. An empty registry authenticates nobody and serves nothing
// until Load or Deploy installs a catalog.
func NewRegistry(opts ...adapter.Option) *Registry {
	r := &Registry{opts: opts}
	r.state.Store(&state{
		file:    &File{Tenants: map[string]*Tenant{}},
		tenants: map[string]*RuntimeTenant{},
		byKey:   map[string]*RuntimeTenant{},
	})
	return r
}

// Load validates the catalog and atomically swaps it in, returning the
// new generation number and the diff against the previous catalog. On
// error the running catalog is untouched. On success Load owns f: it is
// the catalog Snapshot returns, and the entry of every pair whose bundle
// is unchanged is pointed at the bundle its adapter already serves, so
// the registry keeps one decoded copy of each unchanged bundle.
func (r *Registry) Load(f *File) (int64, []Change, error) {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	return r.loadLocked(f)
}

func (r *Registry) loadLocked(f *File) (int64, []Change, error) {
	// Phase 1 — every fallible check, before any running state changes.
	if f == nil {
		return 0, nil, fmt.Errorf("catalog: nil catalog")
	}
	if err := f.Validate(); err != nil {
		return 0, nil, err
	}
	cur := r.state.Load()

	// Phase 2 — build the replacement state. Validation guaranteed every
	// bundle; adapter construction and Replace cannot fail now, so the
	// swap cannot strand a half-built catalog.
	next := &state{
		file:    f,
		gen:     cur.gen + 1,
		tenants: make(map[string]*RuntimeTenant, len(f.Tenants)),
		byKey:   make(map[string]*RuntimeTenant, len(f.Tenants)),
	}
	for _, name := range sortedKeys(f.Tenants) {
		spec := f.Tenants[name]
		prev := cur.tenants[name]
		rt := &RuntimeTenant{
			name:        name,
			quota:       spec.Quota,
			deployments: make(map[string]*Deployment, len(spec.Workflows)),
		}
		if spec.Quota != nil {
			if prev != nil && prev.bucket != nil && quotaEqual(prev.quota, spec.Quota) {
				rt.bucket = prev.bucket
			} else {
				rt.bucket = newBucket(spec.Quota.RatePerSec, spec.Quota.Burst)
			}
		}
		for _, wf := range sortedKeys(spec.Workflows) {
			e := spec.Workflows[wf]
			var prevDep *Deployment
			if prev != nil {
				prevDep = prev.deployments[wf]
			}
			switch {
			case prevDep != nil && prevDep.adapter.Bundle().Equal(e.Bundle):
				// Unchanged: carry the deployment through by pointer —
				// stats, epoch window, regeneration state and decide
				// counters all survive — and install the running bundle
				// in place of its equal copy. The write is skipped when the
				// entry already holds it, as when f is the snapshot itself.
				rt.deployments[wf] = prevDep
				if running := prevDep.adapter.Bundle(); e.Bundle != running {
					e.Bundle = running
				}
			case prevDep != nil:
				// Changed bundle on a surviving pair: the adapter's own
				// atomic Replace — cumulative stats kept, epoch reset.
				if err := prevDep.adapter.Replace(e.Bundle); err != nil {
					// Unreachable: Validate accepted this bundle.
					return 0, nil, err
				}
				rt.deployments[wf] = prevDep
			default:
				a, err := adapter.New(e.Bundle, r.opts...)
				if err != nil {
					// Unreachable for the same reason.
					return 0, nil, err
				}
				rt.deployments[wf] = &Deployment{adapter: a}
			}
		}
		next.tenants[name] = rt
		if spec.APIKey == "" {
			next.open = rt
		} else {
			next.byKey[spec.APIKey] = rt
		}
	}
	changes := Diff(cur.file, f)

	// Phase 3 — the swap: one atomic store.
	r.state.Store(next)
	return next.gen, changes, nil
}

// Deploy installs (or replaces) a single bundle under the open tenant,
// creating an open tenant named "default" when the catalog has none —
// the legacy single-tenant submission path (/v1/bundles, janusctl
// submit) expressed as a one-entry catalog edit.
func (r *Registry) Deploy(b *hints.Bundle) error {
	if b == nil {
		return fmt.Errorf("catalog: nil bundle")
	}
	if err := b.Validate(); err != nil {
		return err
	}
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	cur := r.state.Load()
	f := cloneFile(cur.file)
	name := "default"
	if cur.open != nil {
		name = cur.open.name
	}
	t := f.Tenants[name]
	if t == nil {
		t = &Tenant{Workflows: map[string]*Entry{}}
		f.Tenants[name] = t
	}
	if t.Workflows == nil {
		t.Workflows = map[string]*Entry{}
	}
	t.Workflows[b.Workflow] = &Entry{Bundle: b}
	_, _, err := r.loadLocked(f)
	return err
}

// Snapshot returns the declarative catalog currently being served. The
// caller must not mutate it; reloads go through Load.
func (r *Registry) Snapshot() *File { return r.state.Load().file }

// Generation reports the catalog generation: 0 before the first load,
// incremented by every successful Load or Deploy.
func (r *Registry) Generation() int64 { return r.state.Load().gen }

// AdminKey reports the running catalog's admin key ("" when open).
func (r *Registry) AdminKey() string { return r.state.Load().file.AdminKey }

// Authenticate resolves an API key to its tenant. The empty key resolves
// to the open tenant when the catalog declares one; when the catalog
// declares no keyed tenants at all (auth unconfigured — the pre-catalog
// single-tenant mode), anonymous requests resolve to an empty "default"
// tenant so legacy probes see "not deployed" rather than 401. Both the
// tenant and every lookup made through it are consistent with a single
// catalog generation, even if a swap lands concurrently.
func (r *Registry) Authenticate(key string) (*RuntimeTenant, bool) {
	s := r.state.Load()
	if key == "" {
		if s.open != nil {
			return s.open, true
		}
		if len(s.byKey) == 0 {
			return &RuntimeTenant{name: "default"}, true
		}
		return nil, false
	}
	t, ok := s.byKey[key]
	return t, ok
}

// Name reports the tenant's name.
func (t *RuntimeTenant) Name() string { return t.name }

// Adapter returns the tenant's live adapter for a workflow.
func (t *RuntimeTenant) Adapter(wf string) (*adapter.Adapter, bool) {
	d, ok := t.deployments[wf]
	if !ok {
		return nil, false
	}
	return d.adapter, true
}

// Deployment returns the tenant's deployment of a workflow.
func (t *RuntimeTenant) Deployment(wf string) (*Deployment, bool) {
	d, ok := t.deployments[wf]
	return d, ok
}

// Workflows returns the tenant's workflow names, sorted.
func (t *RuntimeTenant) Workflows() []string { return sortedKeys(t.deployments) }

// Admit spends one admission token. When the tenant's quota is
// exhausted it reports false with the wait until a token refills — the
// Retry-After the API surfaces with a 429. Unlimited tenants always
// admit.
func (t *RuntimeTenant) Admit(now time.Time) (bool, time.Duration) {
	if t.bucket == nil {
		return true, 0
	}
	return t.bucket.admit(now)
}

// Metrics is one tenant's point-in-time supervisor snapshot.
type Metrics struct {
	Tenant    string            `json:"tenant"`
	Workflows []WorkflowMetrics `json:"workflows"`
}

// WorkflowMetrics is one (tenant, workflow) supervisor snapshot:
// cumulative counters plus the current bundle epoch's window.
type WorkflowMetrics struct {
	Workflow      string  `json:"workflow"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	MissRate      float64 `json:"miss_rate"`
	EpochHits     int64   `json:"epoch_hits"`
	EpochMisses   int64   `json:"epoch_misses"`
	EpochMissRate float64 `json:"epoch_miss_rate"`
}

// MetricsSnapshot enumerates every tenant's supervisor counters in one
// consistent catalog generation, tenants and workflows sorted.
func (r *Registry) MetricsSnapshot() []Metrics {
	s := r.state.Load()
	out := make([]Metrics, 0, len(s.tenants))
	for _, name := range sortedKeys(s.tenants) {
		t := s.tenants[name]
		m := Metrics{Tenant: name, Workflows: make([]WorkflowMetrics, 0, len(t.deployments))}
		for _, wf := range sortedKeys(t.deployments) {
			a := t.deployments[wf].adapter
			hits, misses, rate := a.Stats()
			eh, em, er := a.EpochStats()
			m.Workflows = append(m.Workflows, WorkflowMetrics{
				Workflow: wf, Hits: hits, Misses: misses, MissRate: rate,
				EpochHits: eh, EpochMisses: em, EpochMissRate: er,
			})
		}
		out = append(out, m)
	}
	return out
}

// cloneFile deep-copies the declarative file so Deploy can edit it
// without mutating the snapshot concurrent readers hold. Bundles and
// workflow specs are treated as immutable once loaded and are shared.
func cloneFile(f *File) *File {
	cp := &File{Version: f.Version, AdminKey: f.AdminKey, Tenants: make(map[string]*Tenant, len(f.Tenants))}
	for name, t := range f.Tenants {
		tc := &Tenant{APIKey: t.APIKey, Workflows: make(map[string]*Entry, len(t.Workflows))}
		if t.Quota != nil {
			q := *t.Quota
			tc.Quota = &q
		}
		for wf, e := range t.Workflows {
			tc.Workflows[wf] = &Entry{Workflow: e.Workflow, Bundle: e.Bundle}
		}
		cp.Tenants[name] = tc
	}
	return cp
}

// bucket is a token-bucket rate limiter on the real-time clock.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// admit spends one token, refilling by elapsed wall time first. When
// empty it reports the wait until the next token accrues.
func (b *bucket) admit(now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	} else if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Nanosecond
	}
	return false, wait
}
