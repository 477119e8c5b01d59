package catalog

import (
	"strings"
	"testing"
	"time"
)

func mustLoad(t *testing.T, r *Registry, f *File) int64 {
	t.Helper()
	gen, _, err := r.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func decideN(t *testing.T, r *Registry, key, wf string, n int) {
	t.Helper()
	ten, ok := r.Authenticate(key)
	if !ok {
		t.Fatalf("key %q did not authenticate", key)
	}
	a, ok := ten.Adapter(wf)
	if !ok {
		t.Fatalf("tenant %q has no workflow %q", ten.Name(), wf)
	}
	for i := 0; i < n; i++ {
		if _, err := a.Decide(0, 2500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryLoadAndLookup(t *testing.T) {
	r := NewRegistry()
	if r.Generation() != 0 {
		t.Fatalf("fresh registry generation = %d", r.Generation())
	}
	gen := mustLoad(t, r, validFile(t))
	if gen != 1 || r.Generation() != 1 {
		t.Fatalf("generation = %d / %d", gen, r.Generation())
	}
	ten, ok := r.Authenticate("key-acme")
	if !ok || ten.Name() != "acme" {
		t.Fatalf("acme auth = %v, %v", ten, ok)
	}
	if _, ok := r.Authenticate("key-wrong"); ok {
		t.Fatal("unknown key authenticated")
	}
	// Keyed tenants exist and no open tenant is declared: anonymous
	// requests are refused.
	if _, ok := r.Authenticate(""); ok {
		t.Fatal("anonymous authenticated against a keyed catalog")
	}
	a, ok := ten.Adapter("ia")
	if !ok {
		t.Fatal("acme/ia adapter missing")
	}
	d, err := a.Decide(0, 2500*time.Millisecond)
	if err != nil || d.Millicores != 1100 {
		t.Fatalf("decision = %+v, %v", d, err)
	}
	if ws := ten.Workflows(); len(ws) != 1 || ws[0] != "ia" {
		t.Fatalf("workflows = %v", ws)
	}
}

// TestRegistryUnconfiguredOpenMode: before any catalog loads, anonymous
// requests resolve to an empty default tenant (legacy single-tenant
// mode) rather than 401.
func TestRegistryUnconfiguredOpenMode(t *testing.T) {
	r := NewRegistry()
	ten, ok := r.Authenticate("")
	if !ok || ten.Name() != "default" {
		t.Fatalf("unconfigured anonymous auth = %v, %v", ten, ok)
	}
	if _, ok := ten.Adapter("ia"); ok {
		t.Fatal("empty default tenant has adapters")
	}
	if admitted, _ := ten.Admit(time.Now()); !admitted {
		t.Fatal("empty default tenant rate-limited")
	}
}

// sharesRunningBundles checks that every entry of the served catalog
// holds its adapter's bundle itself, not an equal copy: a reload keeps
// one decoded copy of each bundle.
func sharesRunningBundles(t *testing.T, r *Registry) {
	t.Helper()
	for name, spec := range r.Snapshot().Tenants {
		ten, ok := r.Authenticate(spec.APIKey)
		if !ok || ten.Name() != name {
			t.Fatalf("tenant %q did not authenticate", name)
		}
		for wf, e := range spec.Workflows {
			a, ok := ten.Adapter(wf)
			if !ok {
				t.Fatalf("%s/%s has no adapter", name, wf)
			}
			if e.Bundle != a.Bundle() {
				t.Fatalf("%s/%s: the snapshot holds a copy of the bundle its adapter serves", name, wf)
			}
		}
	}
}

// TestRegistrySwapCarryOver pins the reload semantics: unchanged
// (tenant, workflow) pairs keep their adapter — cumulative stats AND
// epoch window — and the snapshot shares its bundle, while changed
// bundles keep cumulative stats but open a fresh epoch, exactly the
// adapter's Replace contract generalized.
func TestRegistrySwapCarryOver(t *testing.T) {
	r := NewRegistry()
	mustLoad(t, r, validFile(t))
	decideN(t, r, "key-acme", "ia", 5)
	decideN(t, r, "key-globex", "va", 3)

	// Reload an identical catalog: everything carries through.
	mustLoad(t, r, validFile(t))
	sharesRunningBundles(t, r)
	ten, _ := r.Authenticate("key-acme")
	a, _ := ten.Adapter("ia")
	if hits, misses, _ := a.Stats(); hits+misses != 5 {
		t.Fatalf("cumulative stats after no-op reload = %d", hits+misses)
	}
	if eh, em, _ := a.EpochStats(); eh+em != 5 {
		t.Fatalf("epoch window after no-op reload = %d (carry-over should preserve it)", eh+em)
	}

	// Reload with acme's bundle changed: cumulative survives, epoch
	// resets; globex (untouched) keeps both.
	next := validFile(t)
	next.Tenants["acme"].Workflows["ia"].Bundle = testBundle(t, "ia", 1101)
	_, changes, err := r.Load(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Kind != BundleChanged {
		t.Fatalf("changes = %v", changes)
	}
	sharesRunningBundles(t, r)
	// Reloading the served catalog itself changes nothing.
	if _, changes, err := r.Load(r.Snapshot()); err != nil || len(changes) != 0 {
		t.Fatalf("reloading the snapshot: changes %v, err %v", changes, err)
	}
	sharesRunningBundles(t, r)
	ten, _ = r.Authenticate("key-acme")
	a2, _ := ten.Adapter("ia")
	if hits, misses, _ := a2.Stats(); hits+misses != 5 {
		t.Fatalf("cumulative stats after bundle swap = %d", hits+misses)
	}
	if eh, em, _ := a2.EpochStats(); eh+em != 0 {
		t.Fatalf("epoch window after bundle swap = %d, want fresh", eh+em)
	}
	d, err := a2.Decide(0, 2500*time.Millisecond)
	if err != nil || d.Millicores != 1101 {
		t.Fatalf("post-swap decision = %+v, %v", d, err)
	}
	g, _ := r.Authenticate("key-globex")
	ga, _ := g.Adapter("va")
	if eh, em, _ := ga.EpochStats(); eh+em != 3 {
		t.Fatalf("untouched tenant epoch window = %d", eh+em)
	}
}

// TestRegistryRejectedLoadLeavesStateUntouched: an invalid catalog must
// not change anything — generation, lookups, stats.
func TestRegistryRejectedLoadLeavesStateUntouched(t *testing.T) {
	r := NewRegistry()
	mustLoad(t, r, validFile(t))
	decideN(t, r, "key-acme", "ia", 2)
	bad := validFile(t)
	bad.Tenants["globex"].APIKey = "key-acme" // duplicate key
	if _, _, err := r.Load(bad); err == nil || !strings.Contains(err.Error(), "share an api_key") {
		t.Fatalf("invalid catalog accepted: %v", err)
	}
	if r.Generation() != 1 {
		t.Fatalf("generation moved to %d on a rejected load", r.Generation())
	}
	ten, ok := r.Authenticate("key-acme")
	if !ok {
		t.Fatal("tenant lost on rejected load")
	}
	a, _ := ten.Adapter("ia")
	if hits, _, _ := a.Stats(); hits != 2 {
		t.Fatalf("stats disturbed by rejected load: %d", hits)
	}
	if _, _, err := r.Load(nil); err == nil {
		t.Fatal("nil catalog accepted")
	}
}

func TestRegistryDeploy(t *testing.T) {
	r := NewRegistry()
	// First deploy creates the open "default" tenant.
	if err := r.Deploy(testBundle(t, "ia", 900)); err != nil {
		t.Fatal(err)
	}
	ten, ok := r.Authenticate("")
	if !ok || ten.Name() != "default" {
		t.Fatalf("open tenant = %v, %v", ten, ok)
	}
	a, ok := ten.Adapter("ia")
	if !ok {
		t.Fatal("deployed bundle missing")
	}
	if d, _ := a.Decide(0, 2500*time.Millisecond); d.Millicores != 900 {
		t.Fatalf("decision = %+v", d)
	}
	// Redeploy replaces in place (epoch resets, cumulative kept). One
	// decision already happened above, plus four more here.
	decideN(t, r, "", "ia", 4)
	if err := r.Deploy(testBundle(t, "ia", 901)); err != nil {
		t.Fatal(err)
	}
	ten, _ = r.Authenticate("")
	a, _ = ten.Adapter("ia")
	if hits, misses, _ := a.Stats(); hits+misses != 5 {
		t.Fatalf("cumulative stats after redeploy = %d", hits+misses)
	}
	if d, _ := a.Decide(0, 2500*time.Millisecond); d.Millicores != 901 {
		t.Fatalf("redeployed decision = %+v", d)
	}
	// Deploy alongside a keyed catalog that declares an open tenant:
	// the bundle lands under that open tenant, keyed tenants untouched.
	f := validFile(t)
	f.Tenants["anon"] = &Tenant{Workflows: map[string]*Entry{"va": {Bundle: testBundle(t, "va", 800)}}}
	r2 := NewRegistry()
	mustLoad(t, r2, f)
	if err := r2.Deploy(testBundle(t, "ia", 700)); err != nil {
		t.Fatal(err)
	}
	anon, _ := r2.Authenticate("")
	if anon.Name() != "anon" {
		t.Fatalf("deploy targeted %q, want the declared open tenant", anon.Name())
	}
	if ws := anon.Workflows(); len(ws) != 2 {
		t.Fatalf("open tenant workflows = %v", ws)
	}
	if _, ok := r2.Authenticate("key-acme"); !ok {
		t.Fatal("keyed tenant lost on deploy")
	}
	// Invalid bundles are rejected outright.
	if err := r.Deploy(nil); err == nil {
		t.Fatal("nil bundle deployed")
	}
	b := testBundle(t, "ia", 1)
	b.SLOMs = 0
	if err := r.Deploy(b); err == nil {
		t.Fatal("invalid bundle deployed")
	}
}

// TestQuotaBucket drives the token bucket deterministically through
// Admit's explicit clock.
func TestQuotaBucket(t *testing.T) {
	f := validFile(t)
	f.Tenants["acme"].Quota = &Quota{RatePerSec: 1, Burst: 2}
	r := NewRegistry()
	mustLoad(t, r, f)
	ten, _ := r.Authenticate("key-acme")
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := ten.Admit(t0); !ok {
			t.Fatalf("burst admit %d denied", i)
		}
	}
	ok, retry := ten.Admit(t0)
	if ok {
		t.Fatal("admit beyond burst")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry-after = %v, want (0, 1s]", retry)
	}
	// A token accrues after 1/rate seconds.
	if ok, _ := ten.Admit(t0.Add(1100 * time.Millisecond)); !ok {
		t.Fatal("admit denied after refill interval")
	}
	// Idle refill caps at burst: after a long idle only 2 admits pass.
	t1 := t0.Add(time.Hour)
	admitted := 0
	for i := 0; i < 5; i++ {
		if ok, _ := ten.Admit(t1); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("admits after long idle = %d, want burst 2", admitted)
	}
}

// TestQuotaBucketCarriesAcrossReload: a reload with the same quota
// declaration keeps the bucket's fill level — a reload is not a quota
// reset — while a changed declaration installs a fresh bucket.
func TestQuotaBucketCarriesAcrossReload(t *testing.T) {
	makeFile := func(burst int) *File {
		f := validFile(t)
		f.Tenants["acme"].Quota = &Quota{RatePerSec: 0.001, Burst: burst}
		return f
	}
	r := NewRegistry()
	mustLoad(t, r, makeFile(2))
	ten, _ := r.Authenticate("key-acme")
	t0 := time.Unix(2000, 0)
	ten.Admit(t0)
	ten.Admit(t0) // bucket drained
	if ok, _ := ten.Admit(t0); ok {
		t.Fatal("bucket not drained")
	}
	// Same quota: the drained bucket carries.
	mustLoad(t, r, makeFile(2))
	ten, _ = r.Authenticate("key-acme")
	if ok, _ := ten.Admit(t0); ok {
		t.Fatal("reload refilled the bucket despite an unchanged quota")
	}
	// Changed quota: fresh bucket at the new burst.
	mustLoad(t, r, makeFile(3))
	ten, _ = r.Authenticate("key-acme")
	for i := 0; i < 3; i++ {
		if ok, _ := ten.Admit(t0); !ok {
			t.Fatalf("fresh bucket admit %d denied", i)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	r := NewRegistry()
	mustLoad(t, r, validFile(t))
	decideN(t, r, "key-acme", "ia", 3)
	snap := r.MetricsSnapshot()
	if len(snap) != 2 || snap[0].Tenant != "acme" || snap[1].Tenant != "globex" {
		t.Fatalf("snapshot tenants = %+v", snap)
	}
	wm := snap[0].Workflows
	if len(wm) != 1 || wm[0].Workflow != "ia" {
		t.Fatalf("acme workflows = %+v", wm)
	}
	if wm[0].Hits+wm[0].Misses != 3 || wm[0].EpochHits+wm[0].EpochMisses != 3 {
		t.Fatalf("acme counters = %+v", wm[0])
	}
}
