package httpapi

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"janus/internal/catalog"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/prometheus.golden from the current output")

// TestPrometheusGolden pins the whole /v1/prometheus body after a fixed
// request sequence, with the server clock stopped so every latency
// observation reads 0 µs and no quota bucket refills. The sequence
// covers a hit and a miss, every error outcome a decide can count, the
// statuses the middleware counts on each route it reaches, a rejected
// reload, and a reload that carries acme/ia's adapter unchanged and
// replaces acme/va's bundle, each decided on again afterwards. Any
// series added, dropped or relabelled shows up as a diff.
func TestPrometheusGolden(t *testing.T) {
	srv := NewServer()
	stopped := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	srv.now = func() time.Time { return stopped }
	srv.SetVersion("golden")
	f := twoTenantCatalog(t, 1100, 2200)
	f.Tenants["acme"].Workflows["va"] = &catalog.Entry{Bundle: tenantBundle(t, "va", 1300)}
	f.Tenants["globex"].Quota = &catalog.Quota{RatePerSec: 0.001, Burst: 1}
	if _, _, err := srv.Registry().Load(f); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	do := func(method, path, key, contentType, body string) {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	decide := func(key, body string) { do(http.MethodPost, "/v1/decide", key, "application/json", body) }

	decide("key-acme", `{"workflow":"ia","suffix":0,"remaining_ms":2500}`)   // hit
	decide("key-acme", `{"workflow":"ia","suffix":0,"remaining_ms":100}`)    // miss
	decide("key-acme", `{"workflow":"ia","suffix":0,"remaining_ms":2500`)    // invalid: truncated JSON
	decide("key-acme", `{"workflow":"ia","suffix":0,"remaining_ms":0}`)      // invalid: budget
	decide("key-acme", `{"workflow":"ia","suffix":7,"remaining_ms":2500}`)   // invalid: adapter rejects the suffix
	decide("key-nobody", `{"workflow":"ia","suffix":0,"remaining_ms":2500}`) // unauthorized
	decide("", `{"workflow":"ia","suffix":0,"remaining_ms":2500}`)           // unauthorized: no key
	decide("key-acme", `{"workflow":"nope","suffix":0,"remaining_ms":2500}`) // not_found
	decide("key-globex", `{"workflow":"va","suffix":0,"remaining_ms":2500}`) // hit, spends the burst
	decide("key-globex", `{"workflow":"va","suffix":0,"remaining_ms":2500}`) // quota
	do(http.MethodGet, "/v1/decide", "key-acme", "", "")                     // 405
	do(http.MethodPost, "/v1/decide", "key-acme", "text/plain", "{}")        // 415
	do(http.MethodGet, "/v1/stats?workflow=ia", "key-acme", "", "")
	do(http.MethodGet, "/v1/healthz", "", "", "")
	do(http.MethodGet, "/v1/nowhere", "", "", "")

	next := twoTenantCatalog(t, 1100, 2200)
	next.Version = 2
	next.Tenants["acme"].Workflows["va"] = &catalog.Entry{Bundle: tenantBundle(t, "va", 1700)}
	body, err := json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	do(http.MethodPut, "/v1/catalog", "", "application/json", "{not json")
	do(http.MethodPut, "/v1/catalog", "", "application/json", string(body))
	decide("key-acme", `{"workflow":"ia","suffix":0,"remaining_ms":2500}`) // hit on the carried adapter
	decide("key-acme", `{"workflow":"va","suffix":0,"remaining_ms":2500}`) // hit on the replaced bundle
	decide("key-acme", `{"workflow":"va","suffix":0,"remaining_ms":10}`)   // miss on the replaced bundle

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("prometheus status = %d", rec.Code)
	}
	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("/v1/prometheus differs from %s (rerun with -update to inspect):\n%s", path, got)
	}
}
