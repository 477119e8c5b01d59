package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"janus/internal/catalog"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, reusing one header map, so a benchmark measures the handler
// rather than a recorder.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkDecideHandler is one keyed tenant's POST /v1/decide through
// Server.Handler(): the middleware and its request counter, the body
// decode, authentication, admission against a quota that never binds,
// the adapter decide, the decision counter, the latency histogram and
// the response. The request and writer are reused, so an op allocates
// only what the handler does.
func BenchmarkDecideHandler(b *testing.B) {
	srv := NewServer()
	if _, _, err := srv.Registry().Load(&catalog.File{Tenants: map[string]*catalog.Tenant{
		"acme": {APIKey: "key-acme", Quota: &catalog.Quota{RatePerSec: 1e12, Burst: 1 << 40},
			Workflows: map[string]*catalog.Entry{"ia": {Bundle: bundle(b)}}},
	}}); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body := []byte(`{"workflow":"ia","suffix":0,"remaining_ms":2001}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", rd)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer key-acme")
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("decide answered %d", w.status)
	}
}

// TestDecideResponseBytes pins the decide response to the bytes
// writeJSON's json.Encoder writes for the same value.
func TestDecideResponseBytes(t *testing.T) {
	for _, d := range []DecideResponse{
		{},
		{Millicores: 1500, Hit: true, Percentile: 90},
		{Millicores: 3000, Percentile: 99},
		{Millicores: -7, Hit: true, Percentile: -1},
		{Millicores: math.MaxInt, Hit: true, Percentile: math.MaxInt},
		{Millicores: math.MinInt, Percentile: math.MinInt},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(d); err != nil {
			t.Fatal(err)
		}
		if got := appendDecideResponse(nil, d); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%+v encodes to %q, json.Encoder writes %q", d, got, want.Bytes())
		}
	}
}

// TestDecideBodyOverLimit pins the decide route's 1 MiB body limit: a
// request whose JSON value runs past the limit answers 400, while a
// request whose value ends inside it is served however long the body,
// since json.Decoder stops at the end of the first value.
func TestDecideBodyOverLimit(t *testing.T) {
	srv := NewServer()
	if err := srv.Deploy(bundle(t)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	pad := strings.Repeat(" ", maxDecideBody)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"value past the limit", `{"workflow":"ia",` + pad + `"suffix":0,"remaining_ms":2001}`, http.StatusBadRequest},
		{"trailing bytes past the limit", `{"workflow":"ia","suffix":0,"remaining_ms":2001}` + pad + "x", http.StatusOK},
	} {
		rec := decideDirect(t, h, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: answered %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body)
		}
		if tc.status == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "request body too large") {
			t.Errorf("%s: answered %s, want the body-limit error", tc.name, rec.Body)
		}
	}
}

// TestInstrumentRecoversPanic wraps panicking handlers with the
// middleware: a panic before any write answers 500 with the envelope
// and is counted, both as a panic and as a 500; a panic after the
// header is out aborts the response; http.ErrAbortHandler passes
// through uncounted.
func TestInstrumentRecoversPanic(t *testing.T) {
	srv := NewServer()
	h := srv.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/stats":
			w.WriteHeader(http.StatusOK)
			panic("after the header")
		case "/v1/healthz":
			panic(http.ErrAbortHandler)
		}
		panic("before any write")
	}))
	serveRecovering := func(path string) (rec *httptest.ResponseRecorder, repanic any) {
		rec = httptest.NewRecorder()
		defer func() { repanic = recover() }()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
		return rec, nil
	}

	rec, repanic := serveRecovering("/v1/decide")
	if repanic != nil {
		t.Fatalf("panic before any write re-panicked with %v", repanic)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || eb.Code != CodeInternal || eb.Error == "" {
		t.Fatalf("panic before any write answered %d %s", rec.Code, rec.Body)
	}
	if _, repanic := serveRecovering("/v1/stats"); repanic != http.ErrAbortHandler {
		t.Fatalf("panic after the header re-panicked with %v, want http.ErrAbortHandler", repanic)
	}
	if _, repanic := serveRecovering("/v1/healthz"); repanic != http.ErrAbortHandler {
		t.Fatalf("http.ErrAbortHandler re-panicked with %v", repanic)
	}

	rec = httptest.NewRecorder()
	srv.handlePrometheus(rec, httptest.NewRequest(http.MethodGet, "/v1/prometheus", nil))
	prom := rec.Body.String()
	for _, want := range []string{
		"janusd_panics_total 2\n",
		`janusd_http_requests_total{path="/v1/decide",status="500"} 1` + "\n",
		`janusd_http_requests_total{path="/v1/stats",status="200"} 1` + "\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus output lacks %q:\n%s", want, prom)
		}
	}
	if strings.Contains(prom, `path="/v1/healthz"`) {
		t.Errorf("http.ErrAbortHandler was counted:\n%s", prom)
	}
}
