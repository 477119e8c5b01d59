package catalog

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"janus/internal/hints"
	"janus/internal/workflow"
)

// FuzzParseCatalog feeds arbitrary bytes through the reload path janusd
// runs on PUT /v1/catalog and SIGHUP: Parse, then Registry.Load, then
// one decide. Parse must never panic, and its decode — the direct pass
// with its fallback — must agree with json.Unmarshal into a File on
// accept or reject and leave a deeply equal File. A catalog Parse
// accepts must load, answer the decide from its first tenant's first
// workflow, and marshal, parse back and marshal to identical bytes: what
// janusd serves is what GET /v1/catalog returns.
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
	// A valid compact catalog, and edits of it that each change one thing
	// the direct pass must either decode as encoding/json does or leave
	// to it.
	const tab0 = `{"workflow":"","suffix":0,"batch":0,"weight":1,"ranges":[{"start_ms":2000,"end_ms":2000,"millicores":1100,"percentile":99}]}`
	const tab1 = `{"workflow":"","suffix":1,"batch":0,"weight":1,"ranges":null}`
	const shapedMember = `"shaped":{"1":{"w=2":{"workflow":"","suffix":1,"batch":0,"weight":1,"ranges":[]}}}`
	const bundle = `{"workflow":"w","batch":1,"weight":1,"slo_ms":3000,"max_millicores":3000,"tables":[` + tab0 + `,` + tab1 + `],` + shapedMember + `}`
	const tenant = `{"api_key":"k","quota":{"rate_per_sec":5,"burst":2},"workflows":{"w":{"bundle":` + bundle + `}}}`
	base := `{"version":1,"admin_key":"adm","tenants":{"a":` + tenant + `}}`
	for _, s := range []string{
		base,
		" \n" + base + "\r\n\t",
		base + " x",
		base + "{}",
		strings.Replace(base, `"version":1,"admin_key":"adm",`, `"admin_key":"adm","version":1,`, 1),
		strings.Replace(base, `"version":1`, `"Version":1`, 1),
		strings.Replace(base, `"api_key":"k"`, `"API_KEY":"k"`, 1),
		strings.Replace(base, `"version":1`, `"version":1,"version":2`, 1),
		strings.Replace(base, `"version":1`, `"version":1,"extra":[{"a":null},"\u0041"]`, 1),
		strings.Replace(base, `"batch":1,"weight":1,`, `"batch":1,"weight":1,"note":"x",`, 1),
		strings.Replace(base, `"tenants":{"a":`+tenant, `"tenants":{"a":`+tenant+`,"a":`+strings.Replace(tenant, `"k"`, `"k2"`, 1), 1),
		strings.Replace(base, `"w":{"bundle"`, `"w":{"bundle":`+bundle+`},"w":{"bundle"`, 1),
		strings.Replace(base, shapedMember, `"shaped":{"1":{"w=2":`+tab1+`},"01":{"w=3":`+tab1+`},"+1":{"w=4":`+tab1+`}}`, 1),
		strings.Replace(base, shapedMember, `"shaped":{"01":{"w=2":`+tab1+`}}`, 1),
		strings.Replace(base, shapedMember, `"shaped":{"-0":{"w=2":`+tab0+`}}`, 1),
		strings.Replace(base, shapedMember, `"shaped":{"1":{"w=2":`+tab1+`,"w=2":`+tab1+`}}`, 1),
		strings.Replace(base, shapedMember, `"shaped":{"1":null}`, 1),
		strings.Replace(base, shapedMember, `"shaped":null`, 1),
		strings.Replace(base, `"quota":{"rate_per_sec":5,"burst":2}`, `"quota":null`, 1),
		strings.Replace(base, `"quota":{"rate_per_sec":5,"burst":2}`, `"quota":{"burst":2,"rate_per_sec":5}`, 1),
		strings.Replace(base, `"quota":{"rate_per_sec":5,"burst":2}`, `"quota":{"rate_per_sec":5},"quota":{"burst":2}`, 1),
		strings.Replace(base, `{"bundle":`+bundle+`}`, `{"bundle":null}`, 1),
		strings.Replace(base, `"tables":[`+tab0+`,`+tab1+`]`, `"tables":null`, 1),
		strings.Replace(base, `"tables":[`+tab0+`,`+tab1+`]`, `"tables":[`+tab0+`,null]`, 1),
		strings.Replace(base, `"tables":[`+tab0, `"tables":[`+tab0+`],"tables":[`+tab0, 1),
		strings.Replace(base, `"ranges":null`, `"ranges":[]`, 1),
		strings.Replace(base, `"percentile":99}]`, `"percentile":99},{"start_ms":2001,"end_ms":2002,"millicores":900}]`, 1),
		strings.Replace(base, `"tenants":{"a":`, `"tenants":{"a\u0062":`, 1),
		strings.Replace(base, `"tenants":{"a":`, "\"tenants\":{\"a\xff\":", 1),
		strings.Replace(base, `"api_key":"k"`, "\"api_key\":\"k\x01\"", 1),
		strings.Replace(base, `"tenants":{"a":`, `"tenants":{"ä — 工作流":`, 1),
		strings.Replace(base, `"w":{"bundle"`, `"w":{"workflow":{"name":"w","slo_ms":3000,"functions":[{"name":"a","function":"a"},{"name":"b","function":"b"}],"edges":[["a","b"]]},"bundle"`, 1),
		strings.Replace(base, `"w":{"bundle"`, `"w":{"workflow":null,"bundle"`, 1),
		strings.Replace(base, `"slo_ms":3000`, `"slo_ms":3e3`, 1),
		strings.Replace(base, `"rate_per_sec":5`, `"rate_per_sec":5e-1`, 1),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want File
		errJSON := json.Unmarshal(data, &want)
		got, err := Decode(data)
		if (err == nil) != (errJSON == nil) {
			t.Fatalf("decode error %v, encoding/json error %v\n%q", err, errJSON, data)
		}
		if err == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("decode and encoding/json disagree on\n%q", data)
		}
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
