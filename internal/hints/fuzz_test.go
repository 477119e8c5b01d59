package hints

import (
	"bytes"
	"testing"
)

// FuzzParseBundle feeds arbitrary bytes to ParseBundle, the decoder every
// submitted bundle (janusctl, janusd's catalog files and PUT /v1/catalog)
// goes through. It must never panic, and a bundle it accepts must marshal
// and parse back to the identical JSON: what the adapter serves is
// exactly what the developer can read back.
func FuzzParseBundle(f *testing.F) {
	for _, b := range []*Bundle{validBundle(), shapedBundle()} {
		data, err := b.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":null}]}`))
	f.Add([]byte(`{"workflow":"w","batch":1,"weight":0.5,"slo_ms":9,"max_millicores":7,"tables":[{"suffix":0,"weight":2,"ranges":[]}],"shaped":{"0":{"w=2":{"suffix":0,"weight":1,"ranges":[{"start_ms":5,"end_ms":5,"millicores":1,"percentile":0}]}}}}`))
	f.Add([]byte(`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":3,"weight":1}]}`))
	f.Add([]byte(`{"tables":[null],"shaped":{"-1":{}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBundle(data)
		if err != nil {
			return
		}
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("accepted bundle does not marshal: %v", err)
		}
		back, err := ParseBundle(out)
		if err != nil {
			t.Fatalf("marshaled bundle rejected: %v\n%s", err, out)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatalf("re-parsed bundle does not marshal: %v", err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("round trip changed the bundle:\n%s\n%s", out, again)
		}
	})
}
