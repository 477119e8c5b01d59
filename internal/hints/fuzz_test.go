package hints

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzParseBundle feeds arbitrary bytes to ParseBundle, the decoder every
// submitted bundle (POST /v1/bundles, janusctl, janus.ParseBundle) goes
// through. It must never panic; it must agree with json.Unmarshal plus
// Validate, the decode it short-cuts, on accept or reject, on the error
// text, and on a deeply equal bundle; and a bundle it accepts must
// marshal and parse back to the identical JSON: what the adapter serves
// is exactly what the developer can read back.
func FuzzParseBundle(f *testing.F) {
	for _, b := range []*Bundle{validBundle(), shapedBundle()} {
		data, err := b.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		indented, err := json.MarshalIndent(b, "", "\t")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(indented)
	}
	for _, s := range []string{
		// Members out of struct order, escaped strings and nulls: all
		// valid JSON outside the direct form, so encoding/json decodes them.
		`{"batch":1,"workflow":"w","weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}]}`,
		`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"weight":1,"suffix":0,"ranges":[{"end_ms":9,"start_ms":1,"millicores":100,"percentile":99}]}]}`,
		`{"workflow":"\u0069a","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"workflow":"i\ta","suffix":0,"weight":1,"ranges":[]}]}`,
		`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}],"shaped":{"0":{"w\u003d2":{"suffix":0,"weight":1,"ranges":[]}}}}`,
		`{"workflow":null,"batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}]}`,
		`{"workflow":"w","batch":null,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":null,"ranges":null}],"shaped":null}`,
		`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":null}`,
		`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}],"shaped":{"0":null}}`,
		`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}],"shaped":{"0":{"w=1":null}}}`,
		`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}],"shaped":{"00":{"w=1":{"suffix":0,"weight":1,"ranges":[]}},"0":{"w=2":{"suffix":0,"weight":1,"ranges":[]}}}}`,
		`{"workflow":"w","workflow":"x","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}]}`,
		` {"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":[]}]} x`,
		`null`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":0,"weight":1,"ranges":null}]}`))
	f.Add([]byte(`{"workflow":"w","batch":1,"weight":0.5,"slo_ms":9,"max_millicores":7,"tables":[{"suffix":0,"weight":2,"ranges":[]}],"shaped":{"0":{"w=2":{"suffix":0,"weight":1,"ranges":[{"start_ms":5,"end_ms":5,"millicores":1,"percentile":0}]}}}}`))
	f.Add([]byte(`{"workflow":"w","batch":1,"weight":1,"slo_ms":100,"max_millicores":100,"tables":[{"suffix":3,"weight":1}]}`))
	f.Add([]byte(`{"tables":[null],"shaped":{"-1":{}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseBundle(data)
		var want Bundle
		errWant := json.Unmarshal(data, &want)
		if errWant != nil {
			errWant = fmt.Errorf("hints: invalid bundle JSON: %w", errWant)
		} else {
			errWant = want.Validate()
		}
		if (err == nil) != (errWant == nil) || err != nil && err.Error() != errWant.Error() {
			t.Fatalf("ParseBundle error %v, json.Unmarshal and Validate %v\n%q", err, errWant, data)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*b, want) {
			t.Fatalf("ParseBundle decoded %#v, json.Unmarshal %#v\n%q", *b, want, data)
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

// FuzzTableDecode pins Table.UnmarshalJSON to encoding/json: for any
// bytes, the direct decoder with its fallback and a plain decode of the
// method-less alias must agree on accept or reject and leave deeply
// equal tables, nil against empty Ranges included.
func FuzzTableDecode(f *testing.F) {
	for _, b := range []*Bundle{validBundle(), shapedBundle()} {
		b.Tables[0].Workflow = b.Workflow
		for _, tab := range append(b.Tables, b.Shaped[1]["w=1"]) {
			for _, marshal := range []func(any) ([]byte, error){
				json.Marshal,
				func(v any) ([]byte, error) { return json.MarshalIndent(v, "\t\t", "  ") },
			} {
				data, err := marshal(tab)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(data)
			}
		}
	}
	for _, s := range []string{
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":null}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":[]}`,
		" \r\n{ \"workflow\" :\t\"ia\" , \"suffix\":0,\"batch\":1,\"weight\":1,\"ranges\" : [ ] }\n",
		"{\"workflow\":\"ia\",\v\"suffix\":0,\"batch\":1,\"weight\":1,\"ranges\":[]}",
		"{\"workflow\":\"ia\",\"suffix\":0,\"batch\":1,\"weight\":1,\"ranges\":[]\f}",
		`{"suffix":0,"workflow":"ia","batch":1,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":[{"end_ms":9,"start_ms":1,"millicores":100,"percentile":99}]}`,
		`{"Workflow":"ia","Suffix":2,"BATCH":1,"weight":1,"Ranges":[{"Start_ms":1,"end_ms":9,"millicores":100,"percentile":99}]}`,
		`{"workflow":"ia\né😀","suffix":0,"batch":1,"weight":1,"ranges":[]}`,
		`{"workflow":"ïå — 工作流","suffix":0,"batch":1,"weight":1,"ranges":[]}`,
		"{\"workflow\":\"ia\xff\xfe\",\"suffix\":0,\"batch\":1,\"weight\":1,\"ranges\":[]}",
		"{\"workflow\":\"ia\x01\",\"suffix\":0,\"batch\":1,\"weight\":1,\"ranges\":[]}",
		`{"workflow":"ia","suffix":-0,"batch":1,"weight":-0,"ranges":[{"start_ms":-0,"end_ms":0,"millicores":1,"percentile":-0}]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1e2,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":-2.5E-3,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1e400,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1.,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":2.5e+,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":-,"ranges":[]}`,
		`{"workflow":"ia","suffix":1e2,"batch":1,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":1.0,"batch":1,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":01,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":[{"start_ms":01,"end_ms":2,"millicores":3,"percentile":4}]}`,
		`{"workflow":"ia","suffix":0,"batch":9223372036854775807,"weight":1,"ranges":[{"start_ms":-9223372036854775808,"end_ms":1,"millicores":1,"percentile":1}]}`,
		`{"workflow":"ia","suffix":0,"batch":9223372036854775808,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":-9223372036854775809,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":10000000000000000000,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"suffix":3,"batch":1,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":[{"start_ms":1,"end_ms":2,"millicores":3,"percentile":4},]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":[{"start_ms":1,"end_ms":2,"millicores":3,"percentile":4}]} x`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":nullx}`,
		`{"workflow":null,"suffix":0,"batch":1,"weight":1,"ranges":[]}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1,"ranges":[],"extra":{"a":[{}]}}`,
		`{"workflow":"ia","suffix":0,"batch":1,"weight":1}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var direct, alias Table
		errDirect := direct.UnmarshalJSON(data)
		errAlias := json.Unmarshal(data, (*tableAlias)(&alias))
		if (errDirect == nil) != (errAlias == nil) {
			t.Fatalf("direct decode error %v, encoding/json error %v\n%q", errDirect, errAlias, data)
		}
		if !reflect.DeepEqual(direct, alias) {
			t.Fatalf("direct decode %#v, encoding/json %#v\n%q", direct, alias, data)
		}
	})
}
