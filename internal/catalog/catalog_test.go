package catalog

import (
	"strings"
	"testing"

	"janus/internal/hints"
	"janus/internal/workflow"
)

// testBundle builds a minimal valid bundle for workflow wf whose first
// table answers mc at budgets >= 2000ms — distinct mc values make
// cross-tenant leaks and stale bundles detectable.
func testBundle(t testing.TB, wf string, mc int) *hints.Bundle {
	t.Helper()
	tab, err := hints.Condense(&hints.RawTable{Suffix: 0, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 2000, HeadMillicores: mc, HeadPercentile: 99},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return &hints.Bundle{
		Workflow: wf, Batch: 1, Weight: 1, SLOMs: 3000, MaxMillicores: 3000,
		Tables: []*hints.Table{tab},
	}
}

// chainBundle builds a bundle with n tables (one per chain suffix).
func chainBundle(t *testing.T, wf string, n int) *hints.Bundle {
	t.Helper()
	tabs := make([]*hints.Table, n)
	for i := range tabs {
		tab, err := hints.Condense(&hints.RawTable{Suffix: i, Weight: 1, Hints: []hints.Hint{
			{BudgetMs: 2000, HeadMillicores: 1000, HeadPercentile: 99},
		}})
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	return &hints.Bundle{
		Workflow: wf, Batch: 1, Weight: 1, SLOMs: 3000, MaxMillicores: 3000,
		Tables: tabs,
	}
}

func validFile(t testing.TB) *File {
	t.Helper()
	return &File{
		Version: 1,
		Tenants: map[string]*Tenant{
			"acme": {
				APIKey: "key-acme",
				Quota:  &Quota{RatePerSec: 100, Burst: 10},
				Workflows: map[string]*Entry{
					"ia": {Bundle: testBundle(t, "ia", 1100)},
				},
			},
			"globex": {
				APIKey: "key-globex",
				Workflows: map[string]*Entry{
					"va": {Bundle: testBundle(t, "va", 2200)},
				},
			},
		},
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := validFile(t)
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tenants) != 2 || back.Version != 1 {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	if back.Tenants["acme"].Quota.Burst != 10 {
		t.Fatalf("quota lost: %+v", back.Tenants["acme"].Quota)
	}
	if back.Tenants["globex"].Workflows["va"].Bundle.Tables[0].Ranges[0].Millicores != 2200 {
		t.Fatal("bundle content lost in round trip")
	}
	if d := Diff(f, back); len(d) != 0 {
		t.Fatalf("round trip diff = %v", d)
	}
}

// TestValidateRejects is the table-driven sweep over every validation
// rule: each mutation must be rejected with a diagnostic naming the
// offending piece.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, f *File)
		wantErr string
	}{
		{"no tenants", func(t *testing.T, f *File) { f.Tenants = nil }, "no tenants"},
		{"empty tenant name", func(t *testing.T, f *File) { f.Tenants[""] = f.Tenants["acme"]; delete(f.Tenants, "acme") }, "empty name"},
		{"nil tenant", func(t *testing.T, f *File) { f.Tenants["acme"] = nil }, "no declaration"},
		{"duplicate api keys", func(t *testing.T, f *File) { f.Tenants["globex"].APIKey = "key-acme" }, "share an api_key"},
		{"two open tenants", func(t *testing.T, f *File) { f.Tenants["acme"].APIKey = ""; f.Tenants["globex"].APIKey = "" }, "open tenant"},
		{"admin key collision", func(t *testing.T, f *File) { f.AdminKey = "key-acme" }, "admin key"},
		{"zero quota rate", func(t *testing.T, f *File) { f.Tenants["acme"].Quota.RatePerSec = 0 }, "rate_per_sec"},
		{"zero quota burst", func(t *testing.T, f *File) { f.Tenants["acme"].Quota.Burst = 0 }, "burst"},
		{"no workflows", func(t *testing.T, f *File) { f.Tenants["acme"].Workflows = nil }, "no workflows"},
		{"empty workflow name", func(t *testing.T, f *File) {
			f.Tenants["acme"].Workflows[""] = f.Tenants["acme"].Workflows["ia"]
			delete(f.Tenants["acme"].Workflows, "ia")
		}, "empty name"},
		{"missing bundle", func(t *testing.T, f *File) { f.Tenants["acme"].Workflows["ia"].Bundle = nil }, "no bundle"},
		{"invalid bundle", func(t *testing.T, f *File) { f.Tenants["acme"].Workflows["ia"].Bundle.SLOMs = 0 }, "SLO"},
		{"bundle name mismatch", func(t *testing.T, f *File) {
			f.Tenants["acme"].Workflows["ia"].Bundle = testBundle(t, "other", 1100)
		}, "bundle is for workflow"},
		{"invalid workflow spec", func(t *testing.T, f *File) {
			f.Tenants["acme"].Workflows["ia"].Workflow = &workflow.Spec{Name: "ia", SLOMillis: 3000}
		}, "at least one node"},
		{"group count mismatch", func(t *testing.T, f *File) {
			f.Tenants["acme"].Workflows["ia"].Workflow = &workflow.Spec{
				Name: "ia", SLOMillis: 3000,
				Nodes: []workflow.Node{{Name: "od", Function: "od"}, {Name: "qa", Function: "qa"}},
				Edges: [][2]string{{"od", "qa"}},
			}
		}, "decision groups"},
		{"slo mismatch", func(t *testing.T, f *File) {
			f.Tenants["acme"].Workflows["ia"].Workflow = &workflow.Spec{
				Name: "ia", SLOMillis: 9999,
				Nodes: []workflow.Node{{Name: "od", Function: "od"}},
			}
		}, "disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFile(t)
			tc.mutate(t, f)
			err := f.Validate()
			if err == nil {
				t.Fatalf("mutation %q validated", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateAcceptsMatchingWorkflowSpec: a declared workflow whose
// decision groups line up with the bundle's tables passes.
func TestValidateAcceptsMatchingWorkflowSpec(t *testing.T) {
	f := validFile(t)
	f.Tenants["acme"].Workflows["ia"].Workflow = &workflow.Spec{
		Name: "ia", SLOMillis: 3000,
		Nodes: []workflow.Node{{Name: "od", Function: "od"}},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// A 3-node chain needs 3 tables.
	f.Tenants["acme"].Workflows["ia"].Bundle = chainBundle(t, "ia", 3)
	f.Tenants["acme"].Workflows["ia"].Workflow = &workflow.Spec{
		Name: "ia", SLOMillis: 3000,
		Nodes: []workflow.Node{{Name: "od", Function: "od"}, {Name: "qa", Function: "qa"}, {Name: "ts", Function: "ts"}},
		Edges: [][2]string{{"od", "qa"}, {"qa", "ts"}},
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsBadJSON(t *testing.T) {
	if _, err := Parse([]byte("{not json")); err == nil || !strings.Contains(err.Error(), "invalid JSON") {
		t.Fatalf("bad JSON error = %v", err)
	}
}

// TestDecodeLeavesValidationToLoad checks the split the reload paths
// rely on: Decode accepts a well-formed but invalid catalog, Parse and
// Registry.Load reject it with the same error, and the registry keeps
// its generation.
func TestDecodeLeavesValidationToLoad(t *testing.T) {
	data := []byte(`{"version":1,"tenants":{}}`)
	f, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode rejected a well-formed catalog: %v", err)
	}
	_, errParse := Parse(data)
	reg := NewRegistry()
	_, _, errLoad := reg.Load(f)
	if errParse == nil || errLoad == nil || errParse.Error() != errLoad.Error() {
		t.Fatalf("Parse error %v, Load error %v: want one validation error", errParse, errLoad)
	}
	if reg.Generation() != 0 {
		t.Fatalf("a rejected load moved the generation to %d", reg.Generation())
	}
}

func TestDiff(t *testing.T) {
	old := validFile(t)
	next := validFile(t)
	// Tenant-level: rotate acme's key, change its quota; remove globex,
	// add initech; workflow-level: add a workflow to acme and change
	// nothing else.
	next.Tenants["acme"].APIKey = "key-acme-2"
	next.Tenants["acme"].Quota = &Quota{RatePerSec: 5, Burst: 2}
	next.Tenants["acme"].Workflows["va"] = &Entry{Bundle: testBundle(t, "va", 1105)}
	delete(next.Tenants, "globex")
	next.Tenants["initech"] = &Tenant{
		APIKey:    "key-initech",
		Workflows: map[string]*Entry{"ia": {Bundle: testBundle(t, "ia", 3300)}},
	}
	got := Diff(old, next)
	want := []Change{
		{Tenant: "acme", Kind: TenantKeyRotate},
		{Tenant: "acme", Kind: QuotaChanged},
		{Tenant: "acme", Workflow: "va", Kind: WorkflowAdded},
		{Tenant: "globex", Kind: TenantRemoved},
		{Tenant: "initech", Kind: TenantAdded},
	}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// A changed bundle is its own kind.
	next2 := validFile(t)
	next2.Tenants["acme"].Workflows["ia"].Bundle = testBundle(t, "ia", 1101)
	got2 := Diff(old, next2)
	if len(got2) != 1 || got2[0] != (Change{Tenant: "acme", Workflow: "ia", Kind: BundleChanged}) {
		t.Fatalf("bundle diff = %v", got2)
	}
	if got2[0].String() != "acme/ia: bundle changed" {
		t.Fatalf("change string = %q", got2[0].String())
	}
	// Identical catalogs: empty diff.
	if d := Diff(old, validFile(t)); len(d) != 0 {
		t.Fatalf("identical catalogs diff = %v", d)
	}
}

// TestDynamicSpecInCatalog: a catalog entry can declare a dynamic
// workflow (here a bounded map step); the annotation survives the
// catalog's JSON round trip and still cross-validates against the
// bundle's tables.
func TestDynamicSpecInCatalog(t *testing.T) {
	f := validFile(t)
	f.Tenants["acme"].Workflows["ia"].Workflow = &workflow.Spec{
		Name: "ia", SLOMillis: 3000,
		Nodes:   []workflow.Node{{Name: "od", Function: "od"}},
		Dynamic: []workflow.DynamicSpec{{Step: "od", Map: &workflow.MapSpec{MaxWidth: 4, Decay: 0.5}}},
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	spec := back.Tenants["acme"].Workflows["ia"].Workflow
	if spec == nil || len(spec.Dynamic) != 1 || spec.Dynamic[0].Map == nil || spec.Dynamic[0].Map.MaxWidth != 4 {
		t.Fatalf("dynamic annotation lost: %+v", spec)
	}
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsDynamic() || w.MapWidth("od") != 4 {
		t.Fatalf("rebuilt workflow lost dynamics: dynamic=%v width=%d", w.IsDynamic(), w.MapWidth("od"))
	}
}
