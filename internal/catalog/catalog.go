// Package catalog is janusd's declarative multi-tenant control plane: a
// registry file of {tenant -> workflows, hint bundles, quotas, API keys}
// that is parsed and validated as a whole, diffed against the running
// state, and swapped in atomically while decide traffic is in flight.
//
// The split mirrors the GoCodeAlone workflow-lifecycle blueprint: the
// File types are the wire form a platform operator edits and pushes (the
// "single YAML file" of the lifecycle doc, JSON here); the Registry in
// registry.go is the runtime that serves lookups off one atomic pointer.
// Changing what the control plane serves — adding a tenant, rotating a
// bundle, tightening a quota — is a catalog edit plus a reload, never a
// recompile.
package catalog

import (
	"encoding/json"
	"fmt"
	"sort"

	"janus/internal/hints"
	"janus/internal/workflow"
)

// File is the top-level declarative catalog: everything janusd serves,
// for every tenant, in one document. A File validates as a whole — a
// reload either installs all of it or none of it.
type File struct {
	// Version is an operator-facing revision marker, echoed in reload
	// summaries and diffs. The control plane does not interpret it
	// beyond reporting; zero is fine.
	Version int `json:"version,omitempty"`
	// AdminKey, when set, gates the catalog endpoints (GET/PUT
	// /v1/catalog): pushes must present it. Empty leaves the catalog
	// surface open (single-operator deployments, tests).
	AdminKey string `json:"admin_key,omitempty"`
	// Tenants maps tenant name to its declaration.
	Tenants map[string]*Tenant `json:"tenants"`
}

// Tenant declares one tenant: its authentication key, its admission
// quota, and the workflows it may decide against.
type Tenant struct {
	// APIKey authenticates the tenant's requests (Authorization: Bearer
	// or X-API-Key). Keys must be unique across the catalog. An empty
	// key declares an open tenant — requests with no credentials resolve
	// to it; at most one open tenant may exist.
	APIKey string `json:"api_key,omitempty"`
	// Quota bounds the tenant's decide rate. Nil means unlimited.
	Quota *Quota `json:"quota,omitempty"`
	// Workflows maps workflow name to its entry. Every entry's bundle
	// must carry the same workflow name as its map key.
	Workflows map[string]*Entry `json:"workflows"`
}

// Quota is a token-bucket admission limit on /v1/decide.
type Quota struct {
	// RatePerSec is the sustained refill rate. Must be positive.
	RatePerSec float64 `json:"rate_per_sec"`
	// Burst is the bucket depth — how many decides may land back to
	// back after an idle period. Must be at least 1.
	Burst int `json:"burst"`
}

// Entry is one deployable workflow under a tenant: the condensed hints
// bundle the adapter serves, optionally paired with the declarative
// workflow definition it was synthesized for (so the control plane can
// cross-validate table coverage against the DAG's decision groups).
type Entry struct {
	// Workflow is the optional declarative DAG definition. When present
	// it must validate and its decision-group count must equal the
	// bundle's table count.
	Workflow *workflow.Spec `json:"workflow,omitempty"`
	// Bundle is the condensed hints bundle. Required.
	Bundle *hints.Bundle `json:"bundle"`
}

// Parse decodes and fully validates a catalog file. Nothing about a
// parsed catalog is provisional: every bundle, quota, key, and workflow
// spec has been checked, so a caller that swaps it in cannot discover an
// invalid entry later.
func Parse(data []byte) (*File, error) {
	f, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Validate checks the whole catalog: tenant and workflow naming, API-key
// uniqueness (admin key included), quota bounds, bundle validity, and —
// when an entry declares its workflow — that the bundle's tables cover
// exactly the workflow's decision groups and agree on the SLO.
func (f *File) Validate() error {
	if len(f.Tenants) == 0 {
		return fmt.Errorf("catalog: no tenants declared")
	}
	keys := map[string]string{} // api key -> tenant that owns it
	open := ""
	for _, name := range sortedKeys(f.Tenants) {
		t := f.Tenants[name]
		if name == "" {
			return fmt.Errorf("catalog: tenant with empty name")
		}
		if t == nil {
			return fmt.Errorf("catalog: tenant %q has no declaration", name)
		}
		if t.APIKey == "" {
			if open != "" {
				return fmt.Errorf("catalog: tenants %q and %q both declare no api_key; at most one open tenant is allowed", open, name)
			}
			open = name
		} else {
			if prev, dup := keys[t.APIKey]; dup {
				return fmt.Errorf("catalog: tenants %q and %q share an api_key", prev, name)
			}
			if f.AdminKey != "" && t.APIKey == f.AdminKey {
				return fmt.Errorf("catalog: tenant %q api_key collides with the admin key", name)
			}
			keys[t.APIKey] = name
		}
		if t.Quota != nil {
			if t.Quota.RatePerSec <= 0 {
				return fmt.Errorf("catalog: tenant %q quota rate_per_sec must be positive, got %v", name, t.Quota.RatePerSec)
			}
			if t.Quota.Burst < 1 {
				return fmt.Errorf("catalog: tenant %q quota burst must be at least 1, got %d", name, t.Quota.Burst)
			}
		}
		if len(t.Workflows) == 0 {
			return fmt.Errorf("catalog: tenant %q declares no workflows", name)
		}
		for _, wf := range sortedKeys(t.Workflows) {
			e := t.Workflows[wf]
			if err := validateEntry(name, wf, e); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateEntry(tenant, wf string, e *Entry) error {
	if wf == "" {
		return fmt.Errorf("catalog: tenant %q has a workflow with an empty name", tenant)
	}
	if e == nil || e.Bundle == nil {
		return fmt.Errorf("catalog: tenant %q workflow %q has no bundle", tenant, wf)
	}
	if err := e.Bundle.Validate(); err != nil {
		return fmt.Errorf("catalog: tenant %q workflow %q: %w", tenant, wf, err)
	}
	if e.Bundle.Workflow != wf {
		return fmt.Errorf("catalog: tenant %q workflow %q: bundle is for workflow %q", tenant, wf, e.Bundle.Workflow)
	}
	if e.Workflow != nil {
		w, err := e.Workflow.Build()
		if err != nil {
			return fmt.Errorf("catalog: tenant %q workflow %q: %w", tenant, wf, err)
		}
		if groups := len(w.DecisionGroups()); groups != e.Bundle.Stages() {
			return fmt.Errorf("catalog: tenant %q workflow %q: bundle has %d tables for %d decision groups",
				tenant, wf, e.Bundle.Stages(), groups)
		}
		if w.SLO().Milliseconds() != int64(e.Bundle.SLOMs) {
			return fmt.Errorf("catalog: tenant %q workflow %q: bundle SLO %dms disagrees with workflow SLO %dms",
				tenant, wf, e.Bundle.SLOMs, w.SLO().Milliseconds())
		}
	}
	return nil
}

// Marshal encodes a validated catalog.
func (f *File) Marshal() ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(f, "", "  ")
}

// ChangeKind classifies one diff entry.
type ChangeKind string

// Diff change kinds.
const (
	TenantAdded     ChangeKind = "tenant added"
	TenantRemoved   ChangeKind = "tenant removed"
	TenantKeyRotate ChangeKind = "api key rotated"
	QuotaChanged    ChangeKind = "quota changed"
	WorkflowAdded   ChangeKind = "workflow added"
	WorkflowRemoved ChangeKind = "workflow removed"
	BundleChanged   ChangeKind = "bundle changed"
)

// Change is one difference between two catalogs.
type Change struct {
	Tenant   string
	Workflow string // empty for tenant-level changes
	Kind     ChangeKind
}

// String renders the change as one diagnostic line.
func (c Change) String() string {
	if c.Workflow == "" {
		return fmt.Sprintf("%s: %s", c.Tenant, c.Kind)
	}
	return fmt.Sprintf("%s/%s: %s", c.Tenant, c.Workflow, c.Kind)
}

// Diff reports the changes that turning old into new would apply, in a
// deterministic order (tenants sorted, tenant-level changes before
// workflow-level ones). It is what `janusctl catalog diff` prints and
// what the registry's swap logs.
func Diff(old, new *File) []Change {
	var out []Change
	names := map[string]bool{}
	for n := range old.Tenants {
		names[n] = true
	}
	for n := range new.Tenants {
		names[n] = true
	}
	for _, name := range sortedKeys(names) {
		ot, nt := old.Tenants[name], new.Tenants[name]
		switch {
		case ot == nil:
			out = append(out, Change{Tenant: name, Kind: TenantAdded})
			continue
		case nt == nil:
			out = append(out, Change{Tenant: name, Kind: TenantRemoved})
			continue
		}
		if ot.APIKey != nt.APIKey {
			out = append(out, Change{Tenant: name, Kind: TenantKeyRotate})
		}
		if !quotaEqual(ot.Quota, nt.Quota) {
			out = append(out, Change{Tenant: name, Kind: QuotaChanged})
		}
		wfs := map[string]bool{}
		for w := range ot.Workflows {
			wfs[w] = true
		}
		for w := range nt.Workflows {
			wfs[w] = true
		}
		for _, wf := range sortedKeys(wfs) {
			oe, ne := ot.Workflows[wf], nt.Workflows[wf]
			switch {
			case oe == nil:
				out = append(out, Change{Tenant: name, Workflow: wf, Kind: WorkflowAdded})
			case ne == nil:
				out = append(out, Change{Tenant: name, Workflow: wf, Kind: WorkflowRemoved})
			case !oe.Bundle.Equal(ne.Bundle):
				out = append(out, Change{Tenant: name, Workflow: wf, Kind: BundleChanged})
			}
		}
	}
	return out
}

func quotaEqual(a, b *Quota) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// sortedKeys returns the map's keys sorted, for deterministic
// validation order, diff output, and metrics enumeration.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
