package catalog

import (
	"encoding/json"
	"reflect"
	"testing"

	"janus/internal/hints"
	"janus/internal/jsonscan"
)

// TestEncodedCatalogsTakeDirectPath pins the catalog decoder's direct
// pass to the encoders that feed it: a catalog written by json.Marshal
// (the compact form Go clients send and perfbench pushes) and by
// File.Marshal (the indented form janusctl catalog push sends and
// scripts/mkcatalog writes) must decode in one pass, without falling
// back to encoding/json, so a fallback cannot hide a slowdown; and the
// pass must decode it as encoding/json does.
func TestEncodedCatalogsTakeDirectPath(t *testing.T) {
	f := validFile(t)
	f.AdminKey = "key-admin"
	f.Tenants["globex"].APIKey = ""
	shaped := testBundle(t, "dag", 1500)
	variant := *shaped.Tables[0]
	variant.Ranges = []hints.Range{}
	empty := *shaped.Tables[0]
	empty.Ranges = nil
	shaped.Tables = append(shaped.Tables, &empty)
	empty.Suffix = 1
	shaped.Shaped = map[int]map[string]*hints.Table{0: {"w=2": &variant, "ünï": &variant}}
	f.Tenants["ïnitech — 工作流"] = &Tenant{APIKey: "key-ïnitech", Workflows: map[string]*Entry{"dag": {Bundle: shaped}}}
	indented, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"File.Marshal": indented, "json.Marshal": compact} {
		s := jsonscan.New(data)
		got := new(File)
		got.decodeFrom(s)
		if !s.End() {
			t.Errorf("%s output fell back to encoding/json:\n%s", name, data)
			continue
		}
		var want File
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s output decoded to %+v, encoding/json to %+v", name, *got, want)
		}
	}
}
