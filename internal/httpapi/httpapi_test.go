package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"janus/internal/hints"
)

func bundle(t testing.TB) *hints.Bundle {
	t.Helper()
	t0, err := hints.Condense(&hints.RawTable{Suffix: 0, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 2000, HeadMillicores: 3000, HeadPercentile: 99},
		{BudgetMs: 2001, HeadMillicores: 1500, HeadPercentile: 90},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := hints.Condense(&hints.RawTable{Suffix: 1, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 1000, HeadMillicores: 1200, HeadPercentile: 99},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return &hints.Bundle{
		Workflow: "ia", Batch: 1, Weight: 1, SLOMs: 3000, MaxMillicores: 3000,
		Tables: []*hints.Table{t0, t1},
	}
}

func serve(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func TestHealthz(t *testing.T) {
	_, c := serve(t)
	if !c.Healthy() {
		t.Fatal("service not healthy")
	}
}

func TestSubmitAndDecideRoundTrip(t *testing.T) {
	_, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	d, err := c.Decide("ia", 0, 2001*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.Millicores != 1500 || d.Percentile != 90 {
		t.Fatalf("decision = %+v", d)
	}
	// Miss path.
	d, err = c.Decide("ia", 0, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.Millicores != 3000 {
		t.Fatalf("miss decision = %+v", d)
	}
	// Stats reflect both decisions.
	st, err := c.Stats("ia")
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 || st.MissRate != 0.5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDecideUnknownWorkflow(t *testing.T) {
	_, c := serve(t)
	if _, err := c.Decide("nope", 0, time.Second); err == nil {
		t.Fatal("unknown workflow accepted")
	}
	if !strings.Contains(func() string {
		_, err := c.Stats("nope")
		return err.Error()
	}(), "not deployed") {
		t.Fatal("stats for unknown workflow should mention deployment")
	}
}

func TestDecideBadSuffix(t *testing.T) {
	_, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide("ia", 9, time.Second); err == nil {
		t.Fatal("bad suffix accepted")
	}
}

// TestDecideRejectsNonPositiveBudget is the regression test for the
// malformed-budget bug: POST /v1/decide with a zero or negative
// remaining_ms used to reach Table.Lookup, count a guaranteed miss, and
// pollute the supervisor's miss rate — the signal the regeneration loop
// triggers on. The server must 400 without moving the counters.
func TestDecideRejectsNonPositiveBudget(t *testing.T) {
	srv, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	// One legitimate decision so the counters are non-trivially set.
	if _, err := c.Decide("ia", 0, 2001*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	a, ok := srv.Adapter("ia")
	if !ok {
		t.Fatal("adapter missing")
	}
	hitsBefore, missesBefore, _ := a.Stats()
	base := c.base
	// 9300000000000 ms overflows a Duration to a negative budget (an
	// escalation and a miss); 18446744075711 ms wraps to 2001 ms (a hit).
	for _, ms := range []int64{0, -5, 9300000000000, 18446744075711} {
		body := fmt.Sprintf(`{"workflow":"ia","suffix":0,"remaining_ms":%d}`, ms)
		resp, err := http.Post(base+"/v1/decide", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("remaining_ms=%d: status %d, want 400", ms, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, "remaining_ms") {
			t.Fatalf("remaining_ms=%d: error %q should name the field", ms, eb.Error)
		}
	}
	hitsAfter, missesAfter, _ := a.Stats()
	if hitsAfter != hitsBefore || missesAfter != missesBefore {
		t.Fatalf("malformed budgets moved the supervisor counters: %d/%d -> %d/%d",
			hitsBefore, missesBefore, hitsAfter, missesAfter)
	}
}

// TestClientRejectsNonPositiveBudget mirrors the server-side check in the
// Go client: a non-positive budget fails before any network round trip.
func TestClientRejectsNonPositiveBudget(t *testing.T) {
	srv, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	a, _ := srv.Adapter("ia")
	for _, remaining := range []time.Duration{0, -time.Second} {
		if _, err := c.Decide("ia", 0, remaining); err == nil {
			t.Fatalf("client accepted budget %v", remaining)
		}
	}
	if hits, misses, _ := a.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("client-side rejection still reached the server: %d/%d", hits, misses)
	}
}

// TestClientSubMillisecondBudgetRoundsUp: a positive budget below 1 ms
// must not truncate to an invalid remaining_ms of zero — it rounds up to
// the smallest valid budget instead of being bounced by the server.
func TestClientSubMillisecondBudgetRoundsUp(t *testing.T) {
	_, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	d, err := c.Decide("ia", 0, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// 1 ms is below the table's coverage: the adapter escalates — a real
	// decision, not a transport rejection.
	if d.Hit || d.Millicores != 3000 {
		t.Fatalf("sub-ms decision = %+v, want an escalated miss", d)
	}
}

func TestSubmitInvalidBundle(t *testing.T) {
	_, c := serve(t)
	b := bundle(t)
	b.Workflow = ""
	if err := c.SubmitBundle(b); err == nil {
		t.Fatal("invalid bundle accepted")
	}
}

func TestResubmitReplacesBundle(t *testing.T) {
	srv, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	b2 := bundle(t)
	b2.Tables[0].Ranges[1].Millicores = 1100
	if err := c.SubmitBundle(b2); err != nil {
		t.Fatal(err)
	}
	d, err := c.Decide("ia", 0, 2001*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Millicores != 1100 {
		t.Fatalf("replacement not applied: %+v", d)
	}
	if _, ok := srv.Adapter("ia"); !ok {
		t.Fatal("adapter lost on replace")
	}
}

func TestMethodValidation(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/bundles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/bundles -> %d, want 405", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/decide -> %d, want 405", resp.StatusCode)
	}
}

func TestConcurrentDecides(t *testing.T) {
	_, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Decide("ia", 0, 2500*time.Millisecond); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st, err := c.Stats("ia")
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits+st.Misses != 400 {
		t.Fatalf("stats count = %d", st.Hits+st.Misses)
	}
}

func TestRemoteAllocator(t *testing.T) {
	_, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	al := &Allocator{Client: c, Workflow: "ia", System: "janus-remote", MaxMillicores: 3000}
	if al.Name() != "janus-remote" {
		t.Fatal("name")
	}
	mc, hit := al.Allocate(nil, 0, 2001*time.Millisecond)
	if !hit || mc != 1500 {
		t.Fatalf("Allocate = %d, %v", mc, hit)
	}
	// A dead service escalates to the ceiling.
	dead := &Allocator{Client: NewClient("http://127.0.0.1:1"), Workflow: "ia", System: "x", MaxMillicores: 3000}
	mc, hit = dead.Allocate(nil, 0, time.Second)
	if hit || mc != 3000 {
		t.Fatalf("dead service Allocate = %d, %v", mc, hit)
	}
}

// TestDeployWhileDeciding is the regression test for the bundle-swap data
// race: janusd redeploying a bundle (Server.Deploy -> adapter.Replace,
// swapping the bundle under the adapter's lock) while HTTP decide traffic
// reads it must be safe under the race detector.
func TestDeployWhileDeciding(t *testing.T) {
	srv, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Decide("ia", 0, 2001*time.Millisecond); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Redeploy mid-traffic, repeatedly, through the server's in-process
	// deploy path (what janusd's regeneration loop drives).
	bundles := make([]*hints.Bundle, 200)
	for i := range bundles {
		b := bundle(t)
		b.Tables[0].Ranges[1].Millicores = 1000 + i
		bundles[i] = b
	}
	for _, b := range bundles {
		if err := srv.Deploy(b); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestHealthzMethodValidation: the health check is a GET-only endpoint; a
// probe that writes to it is misconfigured and must hear 405, not 200.
func TestHealthzMethodValidation(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, ts.URL+"/v1/healthz", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s /v1/healthz -> %d, want 405", method, resp.StatusCode)
		}
	}
	// GET still answers.
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz -> %d, want 200", resp.StatusCode)
	}
}

// TestContentTypeValidation: the JSON POST endpoints reject non-JSON
// Content-Types with 415 before reading the body, so a platform wired to
// send form or octet-stream payloads fails loudly instead of hitting a
// confusing parse error. Parameters on the media type are accepted.
func TestContentTypeValidation(t *testing.T) {
	srv, c := serve(t)
	if err := c.SubmitBundle(bundle(t)); err != nil {
		t.Fatal(err)
	}
	a, _ := srv.Adapter("ia")
	hitsBefore, missesBefore, _ := a.Stats()
	body := `{"workflow":"ia","suffix":0,"remaining_ms":2001}`
	for _, path := range []string{"/v1/decide", "/v1/bundles"} {
		for _, ct := range []string{"", "text/plain", "application/x-www-form-urlencoded", "application/octet-stream"} {
			req, err := http.NewRequest(http.MethodPost, c.base+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if ct != "" {
				req.Header.Set("Content-Type", ct)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("POST %s with Content-Type %q -> %d, want 415", path, ct, resp.StatusCode)
			}
			if !strings.Contains(eb.Error, "application/json") {
				t.Fatalf("POST %s error %q should name the required media type", path, eb.Error)
			}
		}
	}
	// The rejections never reached the adapter.
	if hits, misses, _ := a.Stats(); hits != hitsBefore || misses != missesBefore {
		t.Fatalf("415 rejections moved the supervisor counters: %d/%d -> %d/%d",
			hitsBefore, missesBefore, hits, misses)
	}
	// A charset parameter on the JSON media type is fine.
	resp, err := http.Post(c.base+"/v1/decide", "application/json; charset=utf-8", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON with charset parameter -> %d, want 200", resp.StatusCode)
	}
}

// shapedBundle extends the test bundle with a width-variant table on
// suffix 1 covering budgets the conservative base misses on.
func shapedBundle(t *testing.T) *hints.Bundle {
	t.Helper()
	b := bundle(t)
	v, err := hints.Condense(&hints.RawTable{Suffix: 1, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 400, HeadMillicores: 900, HeadPercentile: 95},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b.Shaped = map[int]map[string]*hints.Table{1: {"w=1": v}}
	return b
}

// TestDecideShapedOverHTTP: a dynamic workflow's resolved-shape key rides
// the decide request; the server answers from the shape-variant table and
// falls back to the conservative base for unknown or absent keys.
func TestDecideShapedOverHTTP(t *testing.T) {
	_, c := serve(t)
	if err := c.SubmitBundle(shapedBundle(t)); err != nil {
		t.Fatal(err)
	}
	// 500ms is below the base table's floor for suffix 1 (1000ms) but
	// inside the w=1 variant's coverage.
	d, err := c.DecideShaped("ia", 1, "w=1", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.Millicores != 900 || d.Percentile != 95 {
		t.Fatalf("shaped decision = %+v", d)
	}
	// Unknown shapes fall back to the base table — here a miss.
	d, err = c.DecideShaped("ia", 1, "w=9", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hit || d.Millicores != 3000 {
		t.Fatalf("unknown-shape decision = %+v", d)
	}
	// The shapeless path is untouched.
	d, err = c.Decide("ia", 1, 1000*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Hit || d.Millicores != 1200 {
		t.Fatalf("base decision = %+v", d)
	}
	// The remote allocator's shape-aware surface drives the same path.
	al := &Allocator{Client: c, Workflow: "ia", System: "janus-remote", MaxMillicores: 3000}
	mc, hit := al.AllocateShaped(nil, 1, "w=1", 500*time.Millisecond)
	if !hit || mc != 900 {
		t.Fatalf("AllocateShaped = %d, %v", mc, hit)
	}
}
