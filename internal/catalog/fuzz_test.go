package catalog

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"janus/internal/hints"
	"janus/internal/workflow"
)

// FuzzParseCatalog feeds arbitrary bytes through the reload path janusd
// runs on PUT /v1/catalog and SIGHUP: Parse, then Registry.Load, then
// one decide. Parse must never panic. A catalog it accepts must load,
// answer the decide from its first tenant's first workflow, and marshal,
// parse back and marshal to identical bytes: what janusd serves is what
// GET /v1/catalog returns.
func FuzzParseCatalog(f *testing.F) {
	plain := validFile(f)
	indented, err := plain.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(plain)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indented)
	f.Add(compact)
	rich := validFile(f)
	rich.AdminKey = "key-admin"
	rich.Tenants["globex"].APIKey = ""
	shaped := testBundle(f, "dag", 1500)
	variant := *shaped.Tables[0]
	variant.Ranges = []hints.Range{{StartMs: 900, EndMs: 1999, Millicores: 2500, Percentile: 95}}
	shaped.Shaped = map[int]map[string]*hints.Table{0: {"w=2": &variant}}
	rich.Tenants["acme"].Workflows["dag"] = &Entry{Bundle: shaped, Workflow: &workflow.Spec{
		Name: "dag", SLOMillis: 3000,
		Nodes:   []workflow.Node{{Name: "od", Function: "od"}},
		Dynamic: []workflow.DynamicSpec{{Step: "od", Map: &workflow.MapSpec{MaxWidth: 4, Decay: 0.5}}},
	}}
	if data, err := rich.Marshal(); err != nil {
		f.Fatal(err)
	} else {
		f.Add(data)
	}
	for _, s := range []string{
		`{}`,
		`{"tenants":{}}`,
		`{"tenants":{"a":null}}`,
		`{"tenants":{"a":{"workflows":{"w":{"bundle":null}}}}}`,
		`{"tenants":{"a":{"quota":{"rate_per_sec":0,"burst":1},"workflows":{}}}}`,
		`{"tenants":{"a":{"workflows":{"w":{"bundle":{"workflow":"w","batch":1,"weight":1,"slo_ms":9223372036854775807,"max_millicores":1,"tables":[{"workflow":"","suffix":0,"batch":0,"weight":1,"ranges":null}]}}}}}}`,
		`{"tenants":{"a":{"api_key":"k","workflows":{"w":{"bundle":{"workflow":"w","batch":1,"weight":-0,"slo_ms":1,"max_millicores":1,"tables":[{"suffix":0,"weight":1e-300,"ranges":[]}]}}}},"b":{"api_key":"k","workflows":{}}}}`,
		`{"version":-1,"admin_key":"y","tenants":{"a":{"api_key":"x","workflows":{"w":{"bundle":{"workflow":"w","batch":1,"weight":1,"slo_ms":1,"max_millicores":1,"tables":[{"Suffix":0,"Weight":2,"RANGES":[{"START_MS":1,"end_ms":2,"millicores":3,"percentile":4}]}]}}}}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := Parse(data)
		if err != nil {
			return
		}
		r := NewRegistry()
		if _, _, err := r.Load(cf); err != nil {
			t.Fatalf("parsed catalog rejected by Load: %v", err)
		}
		name := sortedKeys(cf.Tenants)[0]
		decl := cf.Tenants[name]
		tenant, ok := r.Authenticate(decl.APIKey)
		if !ok || tenant.Name() != name {
			t.Fatalf("tenant %q does not authenticate with its own key", name)
		}
		wf := sortedKeys(decl.Workflows)[0]
		a, ok := tenant.Adapter(wf)
		if !ok {
			t.Fatalf("tenant %q has no adapter for %q", name, wf)
		}
		shape := ""
		if variants := decl.Workflows[wf].Bundle.Shaped[0]; len(variants) > 0 {
			shape = sortedKeys(variants)[0]
		}
		d, err := a.DecideShaped(0, shape, time.Second)
		if err != nil || d.Millicores <= 0 {
			t.Fatalf("decide on %s/%s: %+v, %v", name, wf, d, err)
		}
		out, err := cf.Marshal()
		if err != nil {
			t.Fatalf("accepted catalog does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled catalog rejected: %v\n%s", err, out)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatalf("re-parsed catalog does not marshal: %v", err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("round trip changed the catalog:\n%s\n%s", out, again)
		}
	})
}
