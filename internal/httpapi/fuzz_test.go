package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"janus/internal/catalog"
	"janus/internal/hints"
)

// FuzzDecideBody posts arbitrary bytes to POST /v1/decide as the one
// keyed tenant of a catalog serving bundle(t) plus a "w=2" variant of
// its first table. No body may panic the handler. Wherever the direct
// decode accepts a body, json.Decoder must decode it to the same
// request, bytes after the first value included. A body that decodes
// to the deployed workflow, a valid suffix and a remaining_ms in
// (0, MaxRemainingMs] answers 200 with its table's Lookup, or the
// escalation on a miss, and counts exactly that hit or miss; every
// other body gets a 4xx {error, code} envelope and leaves the adapter's
// hit/miss counters unmoved.
func FuzzDecideBody(f *testing.F) {
	b := bundle(f)
	variant, err := hints.Condense(&hints.RawTable{Suffix: 0, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 1200, HeadMillicores: 900, HeadPercentile: 95},
	}})
	if err != nil {
		f.Fatal(err)
	}
	b.Shaped = map[int]map[string]*hints.Table{0: {"w=2": variant}}
	srv := NewServer()
	if _, _, err := srv.Registry().Load(&catalog.File{Version: 1, Tenants: map[string]*catalog.Tenant{
		"acme": {APIKey: "key-acme", Workflows: map[string]*catalog.Entry{"ia": {Bundle: b}}},
	}}); err != nil {
		f.Fatal(err)
	}
	tenant, ok := srv.Registry().Authenticate("key-acme")
	if !ok {
		f.Fatal("tenant does not authenticate")
	}
	a, ok := tenant.Adapter("ia")
	if !ok {
		f.Fatal("workflow not deployed")
	}
	h := srv.Handler()
	for _, s := range []string{
		`{"workflow":"ia","suffix":0,"remaining_ms":2001}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":100}`,
		`{"workflow":"ia","suffix":1,"remaining_ms":1000,"shape":"w=2"}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":1300,"shape":"w=2"}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":1300,"shape":"w=9"}`,
		`{"workflow":"ia","suffix":2,"remaining_ms":5000}`,
		`{"workflow":"ia","suffix":-1,"remaining_ms":5000}`,
		`{"workflow":"va","suffix":0,"remaining_ms":5000}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":0}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":-5}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":9223372036854}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":9223372036855}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":9300000000000}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":18446744075711}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":1.5}`,
		`{"Workflow":"ia","SUFFIX":0,"remaining_ms":2500} trailing`,
		`{"workflow":"ia","suffix":0,"remaining_ms":2001}trailing`,
		" \t{\"workflow\":\"ia\",\"suffix\":0,\"remaining_ms\":1300,\"shape\":\"w=2\"}\n{\"x\":",
		"{\"workflow\":\"ia\",\"suffix\":0,\"remaining_ms\":2001}\x00\xff",
		`{"workflow":"ia","suffix":0,"remaining_ms":2001,"workflow":"va"}`,
		`{"suffix":0,"workflow":"ia","remaining_ms":2001}`,
		`{"workflow":"i\u0061","suffix":0,"remaining_ms":2001}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":2001,"extra":[1,{}]}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":2001,"shape":null}`,
		`{"workflow":"ia","suffix":-0,"remaining_ms":2001}`,
		`{}`,
		`null`,
		`[]`,
		`{"workflow":"ia"`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<20 {
			t.Skip("over the route's body limit")
		}
		hits, misses, _ := a.Stats()
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer key-acme")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		gotHits, gotMisses, _ := a.Stats()

		// The oracle decodes the body as json.Decoder does.
		var dr DecideRequest
		decErr := json.NewDecoder(bytes.NewReader(body)).Decode(&dr)
		if direct, ok := decodeDirect(body); ok && (decErr != nil || direct != dr) {
			t.Fatalf("direct decode %+v, json.Decoder %+v (%v)\n%q", direct, dr, decErr, body)
		}
		valid := decErr == nil &&
			dr.Workflow == "ia" && dr.Suffix >= 0 && dr.Suffix < len(b.Tables) &&
			dr.RemainingMs > 0 && dr.RemainingMs <= MaxRemainingMs
		if !valid {
			var eb errorBody
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("invalid body %q answered %d: %s", body, rec.Code, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" || eb.Code == "" {
				t.Fatalf("invalid body %q answered %d without an {error, code} envelope: %s", body, rec.Code, rec.Body)
			}
			if gotHits != hits || gotMisses != misses {
				t.Fatalf("invalid body %q moved the counters %d/%d -> %d/%d", body, hits, misses, gotHits, gotMisses)
			}
			return
		}
		table := b.Tables[dr.Suffix]
		if v, ok := b.ShapedTable(dr.Suffix, dr.Shape); ok && dr.Shape != "" {
			table = v
		}
		want := DecideResponse{Millicores: b.MaxMillicores, Percentile: 99}
		if r, hit := table.Lookup(time.Duration(dr.RemainingMs) * time.Millisecond); hit {
			want = DecideResponse{Millicores: r.Millicores, Hit: true, Percentile: r.Percentile}
		}
		var got DecideResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil || got != want {
			t.Fatalf("valid body %q answered %d %s, want %+v", body, rec.Code, rec.Body, want)
		}
		wantHits, wantMisses := hits, misses+1
		if want.Hit {
			wantHits, wantMisses = hits+1, misses
		}
		if gotHits != wantHits || gotMisses != wantMisses {
			t.Fatalf("valid body %q moved the counters %d/%d -> %d/%d, want %d/%d", body, hits, misses, gotHits, gotMisses, wantHits, wantMisses)
		}
	})
}
