package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// decideDirect drives one POST /v1/decide through the full handler
// (middleware included) without a network listener.
func decideDirect(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestPrometheusEndpoint(t *testing.T) {
	srv, _ := serve(t)
	srv.SetVersion("v1.2.3")
	if err := srv.Deploy(bundle(t)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	// One hit, one miss, one rejected budget and one suffix the adapter
	// rejects: an adapter error after authentication counts as invalid
	// under its tenant and workflow.
	for _, body := range []string{
		`{"workflow":"ia","suffix":0,"remaining_ms":2001}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":100}`,
		`{"workflow":"ia","suffix":0,"remaining_ms":-1}`,
		`{"workflow":"ia","suffix":5,"remaining_ms":2001}`,
	} {
		decideDirect(t, h, body)
	}
	// One catalog swapped in over PUT, one rejected: the reload counter
	// and the generation gauge (Deploy made 1, the swap 2).
	good, err := json.Marshal(twoTenantCatalog(t, 1100, 2200))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{string(good), "{not json"} {
		req := httptest.NewRequest(http.MethodPut, "/v1/catalog", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(httptest.NewRecorder(), req)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/prometheus", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("prometheus status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE janusd_decisions_total counter",
		`janusd_decisions_total{outcome="hit",tenant="default",workflow="ia"} 1`,
		`janusd_decisions_total{outcome="miss",tenant="default",workflow="ia"} 1`,
		`janusd_decisions_total{outcome="invalid",tenant="",workflow=""} 1`,
		`janusd_decisions_total{outcome="invalid",tenant="default",workflow="ia"} 1`,
		"# TYPE janusd_decide_latency_us histogram",
		"janusd_decide_latency_us_count 4",
		`janusd_build_info{version="v1.2.3"} 1`,
		`janusd_http_requests_total{path="/v1/decide",status="200"} 2`,
		`janusd_http_requests_total{path="/v1/decide",status="400"} 2`,
		"janusd_panics_total 0\n",
		"# TYPE janusd_catalog_reloads_total counter",
		`janusd_catalog_reloads_total{outcome="swapped",source="http"} 1`,
		`janusd_catalog_reloads_total{outcome="rejected",source="http"} 1`,
		"# TYPE janusd_catalog_generation gauge",
		"janusd_catalog_generation 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestHealthzReportsVersion(t *testing.T) {
	srv, _ := serve(t)
	srv.SetVersion("v9.9")
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["version"] != "v9.9" || got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}
}

// TestMetricsPointsAgreeWithPrometheus pins the one-registry contract:
// the typed Points in a /v1/metrics frame and the /v1/prometheus text
// render the same counters with the same values.
func TestMetricsPointsAgreeWithPrometheus(t *testing.T) {
	srv, c := serve(t)
	if err := srv.Deploy(bundle(t)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	decideDirect(t, h, `{"workflow":"ia","suffix":0,"remaining_ms":2001}`)
	decideDirect(t, h, `{"workflow":"ia","suffix":0,"remaining_ms":2001}`)

	snap, err := c.MetricsOnce()
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	found := false
	for _, p := range snap.Points {
		if p.Name == "janusd_decisions_total" && p.Labels["outcome"] == "hit" {
			hits, found = p.Value, true
		}
	}
	if !found || hits != 2 {
		t.Fatalf("points: hit counter = %d (found=%t)", hits, found)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/prometheus", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	want := `janusd_decisions_total{outcome="hit",tenant="default",workflow="ia"} 2`
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("prometheus disagrees with points; missing %q:\n%s", want, rec.Body.String())
	}
}

// flushCounter is a ResponseWriter that counts frames (flushes) behind a
// mutex, for the stream-termination tests (the handler goroutine flushes
// while the test polls).
type flushCounter struct {
	*httptest.ResponseRecorder
	mu      sync.Mutex
	flushes int
}

func (f *flushCounter) Flush() {
	f.mu.Lock()
	f.flushes++
	f.mu.Unlock()
}

func (f *flushCounter) Flushes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flushes
}

func (f *flushCounter) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ResponseRecorder.Write(b)
}

func (f *flushCounter) bodyLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ResponseRecorder.Body.Len()
}

// TestMetricsStreamStopsOnDisconnect is the mid-stream hang-up
// regression test: a /v1/metrics stream whose client disconnects between
// frames must terminate promptly — even with an hour-long interval — and
// a stream whose context is already dead must not write a single frame
// (the ticker/cancellation select race used to allow one).
func TestMetricsStreamStopsOnDisconnect(t *testing.T) {
	srv, _ := serve(t)
	h := srv.Handler()

	// Mid-stream hang-up: frame 1 is written, then the client goes away
	// while the handler waits out a 1-hour tick.
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics?interval_ms=3600000", nil).WithContext(ctx)
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()
	// Wait for the first frame, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for rec.Flushes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rec.Flushes() == 0 {
		t.Fatal("stream never wrote its first frame")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after client disconnect")
	}

	// Already-dead client: not one frame goes out.
	deadCtx, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	req2 := httptest.NewRequest(http.MethodGet, "/v1/metrics?interval_ms=3600000", nil).WithContext(deadCtx)
	rec2 := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec2, req2)
	if body := rec2.bodyLen(); body != 0 {
		t.Fatalf("dead-context stream wrote %d bytes, want 0", body)
	}
}

func TestAccessLog(t *testing.T) {
	srv, _ := serve(t)
	var buf bytes.Buffer
	srv.SetAccessLog(&buf)
	if err := srv.Deploy(bundle(t)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	decideDirect(t, h, `{"workflow":"ia","suffix":0,"remaining_ms":2001}`)
	line := buf.String()
	for _, want := range []string{
		"method=POST", "path=/v1/decide", "tenant=default", "status=200", "dur=", "bytes=",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %q: %q", want, line)
		}
	}
}
