// Package httpapi exposes the provider-side control plane as a web
// service and provides the matching Go client — the reproduction of the
// paper's lightweight backend (Flask + Redis + Fission HTTP triggers in
// §V-A), grown into a declarative multi-tenant surface and built on
// net/http only.
//
// The operator pushes a catalog ({tenant -> workflows, bundles, quotas,
// API keys}) that swaps in atomically; tenants authenticate with static
// API keys, are admission-controlled by per-tenant token buckets, and
// report each function completion's remaining budget to receive the
// resize decision for the next function. Supervisor statistics stream
// per tenant. The pre-catalog single-tenant surface (/v1/bundles,
// /v1/stats) is preserved as the open tenant's view.
package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"time"

	"janus/internal/adapter"
	"janus/internal/catalog"
	"janus/internal/hints"
	"janus/internal/jsonscan"
	"janus/internal/obs"
)

// Error codes carried in the uniform error envelope. Clients branch on
// Code; Error is the human-readable diagnostic.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeUnauthorized     = "unauthorized"
	CodeNotFound         = "not_found"
	CodeQuotaExceeded    = "quota_exceeded"
	CodeInvalidCatalog   = "invalid_catalog"
	CodeInternal         = "internal"
)

// DecideRequest is the body of POST /v1/decide.
type DecideRequest struct {
	// Workflow names the deployed bundle under the calling tenant.
	Workflow string `json:"workflow"`
	// Suffix is the stage index of the remaining sub-workflow's head.
	Suffix int `json:"suffix"`
	// RemainingMs is the time budget until the SLO deadline. It must be
	// positive: a zero or negative budget is a malformed report (the
	// platform reports budgets at function completion, before the
	// deadline), and letting it through would count a guaranteed table
	// miss — polluting the supervisor's miss rate, the very signal the
	// regeneration loop triggers on. It must also be at most
	// MaxRemainingMs: a larger budget would overflow the Duration the
	// adapter decides on and wrap to an arbitrary one.
	RemainingMs int64 `json:"remaining_ms"`
	// Shape is the decision group's resolved-shape key for dynamic
	// workflows ("w=3" when the group's map member resolved to width 3).
	// Empty — the static case — answers from the conservative base table;
	// unknown keys fall back to it too.
	Shape string `json:"shape,omitempty"`
}

// MaxRemainingMs is the largest budget, in milliseconds, a decide
// request may report: the largest whole-millisecond time.Duration
// (about 292 years).
const MaxRemainingMs = math.MaxInt64 / int64(time.Millisecond)

// DecideResponse is the adapter's decision.
type DecideResponse struct {
	Millicores int  `json:"millicores"`
	Hit        bool `json:"hit"`
	Percentile int  `json:"percentile"`
}

// StatsResponse reports the supervisor counters for one workflow.
type StatsResponse struct {
	Tenant   string  `json:"tenant"`
	Workflow string  `json:"workflow"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	MissRate float64 `json:"miss_rate"`
}

// ReloadResponse summarizes a successful PUT /v1/catalog.
type ReloadResponse struct {
	Generation int64    `json:"generation"`
	Tenants    int      `json:"tenants"`
	Workflows  int      `json:"workflows"`
	Changes    []string `json:"changes"`
}

// MetricsSnapshot is one frame of the GET /v1/metrics stream. Points is
// the server's metrics registry rendered as typed samples — the same
// registry /v1/prometheus scrapes, so the two surfaces always agree.
type MetricsSnapshot struct {
	Generation int64             `json:"generation"`
	Tenants    []catalog.Metrics `json:"tenants"`
	Points     []obs.Point       `json:"points,omitempty"`
}

// errorBody is the uniform error envelope every non-2xx response
// carries: a human-readable diagnostic plus a stable machine code.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Server hosts the control plane. It is safe for concurrent use; all
// serving state lives in the catalog registry behind one atomic pointer.
type Server struct {
	reg *catalog.Registry
	// now stamps admission decisions; tests override it to drive the
	// token buckets deterministically.
	now func() time.Time
	// metricsInterval floors the /v1/metrics stream cadence.
	metricsMinInterval time.Duration
	// obs is the operator-surface metrics registry: request/decision
	// counters and decide-latency histograms, scraped at /v1/prometheus
	// and embedded in /v1/metrics frames.
	obs *obs.Registry
	// decideLatency and panics are resolved once, in NewServer; the
	// request counters once per (route, status) cell, on the cell's
	// first request; the hit and miss counters once per deployed pair,
	// beside its adapter. A served decide looks none of them up.
	decideLatency *obs.Histogram
	panics        *obs.Counter
	requests      [len(routes)][len(statuses)]obs.CounterSlot
	// version is the build stamp reported by /v1/healthz (SetVersion).
	version string
	// accessLog, when set, receives one structured line per request
	// (SetAccessLog).
	accessLog io.Writer
}

// NewServer builds a server with an empty catalog; opts apply to every
// adapter it creates. Until a catalog with API keys is loaded the server
// runs open: anonymous requests resolve to the open ("default") tenant.
func NewServer(opts ...adapter.Option) *Server {
	metrics := obs.NewRegistry()
	return &Server{
		reg:                catalog.NewRegistry(opts...),
		now:                time.Now,
		metricsMinInterval: 10 * time.Millisecond,
		obs:                metrics,
		decideLatency:      metrics.Histogram("janusd_decide_latency_us", decideLatencyBucketsUs),
		panics:             metrics.Counter("janusd_panics_total"),
		version:            "dev",
	}
}

// Registry exposes the catalog registry (boot loading, SIGHUP reloads,
// in-process embeddings).
func (s *Server) Registry() *catalog.Registry { return s.reg }

// Deploy installs (or replaces) the bundle under the open tenant,
// bypassing HTTP — the legacy single-tenant path, kept for in-process
// embeddings and janusctl submit.
func (s *Server) Deploy(b *hints.Bundle) error { return s.reg.Deploy(b) }

// Adapter returns the open tenant's live adapter for a workflow, if
// deployed — the legacy single-tenant view.
func (s *Server) Adapter(workflow string) (*adapter.Adapter, bool) {
	t, ok := s.reg.Authenticate("")
	if !ok {
		return nil, false
	}
	return t.Adapter(workflow)
}

// Handler returns the HTTP routes, wrapped in the instrumentation
// middleware (request counters, optional access log, panic recovery).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/bundles", s.handleBundles)
	mux.HandleFunc("/v1/decide", s.handleDecide)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/catalog", s.handleCatalog)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/prometheus", s.handlePrometheus)
	return s.instrument(mux)
}

// apiKey extracts the caller's credential: "Authorization: Bearer <key>"
// or the X-API-Key header. Empty means anonymous.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
		return auth[7:]
	}
	return r.Header.Get("X-API-Key")
}

// tenant authenticates the request, writing the 401 envelope on failure.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*catalog.RuntimeTenant, bool) {
	key := apiKey(r)
	t, ok := s.reg.Authenticate(key)
	if !ok {
		if key == "" {
			writeError(w, http.StatusUnauthorized, CodeUnauthorized, "api key required")
		} else {
			writeError(w, http.StatusUnauthorized, CodeUnauthorized, "unknown api key")
		}
		return nil, false
	}
	return t, true
}

// requireAdmin gates the operator surface (catalog, bundle submission,
// metrics): when the running catalog sets an admin key the caller must
// present it; an open catalog leaves the surface open.
func (s *Server) requireAdmin(w http.ResponseWriter, r *http.Request) bool {
	admin := s.reg.AdminKey()
	if admin == "" || apiKey(r) == admin {
		return true
	}
	writeError(w, http.StatusUnauthorized, CodeUnauthorized, "admin key required")
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": s.reg.Generation(),
		"version":    s.version,
	})
}

func (s *Server) handleBundles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return
	}
	if !requireJSON(w, r) {
		return
	}
	if !s.requireAdmin(w, r) {
		return
	}
	body, err := readBody(w, r, 32<<20)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%s", err)
		return
	}
	b, err := hints.ParseBundle(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%s", err)
		return
	}
	if err := s.Deploy(b); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%s", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workflow": b.Workflow,
		"stages":   b.Stages(),
		"ranges":   b.TotalRanges(),
	})
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST required")
		return
	}
	if !requireJSON(w, r) {
		return
	}
	// The decision audit: every decide call lands in the registry with
	// its outcome, resolved tenant/workflow, and wall latency.
	start := s.now()
	s.decide(w, r).Inc()
	s.decideLatency.Observe(s.now().Sub(start).Microseconds())
}

// decide answers one decide and returns the janusd_decisions_total
// counter its outcome counts in: hit or miss under the tenant and the
// deployed workflow; invalid for a body that does not decode or a
// budget out of range, with empty labels, and for a request the adapter
// rejects (a suffix outside the bundle), under the tenant and workflow;
// unauthorized with empty labels; quota and not_found under the tenant
// alone. Only deployed names become label values: the raw request
// string is caller-controlled and would grow the registry without
// bound. A served decide's counter was resolved beside its adapter; the
// error outcomes resolve theirs by label.
func (s *Server) decide(w http.ResponseWriter, r *http.Request) *obs.Counter {
	req, err := decodeDecide(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%s", err)
		return s.decisions("invalid", "", "")
	}
	// Reject malformed budgets before touching the adapter: they must not
	// move the supervisor's hit/miss counters.
	if req.RemainingMs <= 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"remaining_ms must be positive, got %d", req.RemainingMs)
		return s.decisions("invalid", "", "")
	}
	if req.RemainingMs > MaxRemainingMs {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"remaining_ms %d overflows a duration (at most %d)", req.RemainingMs, MaxRemainingMs)
		return s.decisions("invalid", "", "")
	}
	t, ok := s.tenant(w, r)
	if !ok {
		return s.decisions("unauthorized", "", "")
	}
	// Admission control: the tenant's token bucket, after authentication
	// (anonymous traffic cannot drain a keyed tenant's quota) and after
	// request validation (malformed requests don't spend tokens).
	if admitted, retryAfter := t.Admit(s.now()); !admitted {
		secs := int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"tenant %q decide quota exhausted; retry in %ds", t.Name(), secs)
		return s.decisions("quota", t.Name(), "")
	}
	dep, ok := t.Deployment(req.Workflow)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"workflow %q not deployed for tenant %q", req.Workflow, t.Name())
		return s.decisions("not_found", t.Name(), "")
	}
	d, err := dep.Adapter().DecideShaped(req.Suffix, req.Shape, time.Duration(req.RemainingMs)*time.Millisecond)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%s", err)
		return s.decisions("invalid", t.Name(), req.Workflow)
	}
	writeDecide(w, DecideResponse{Millicores: d.Millicores, Hit: d.Hit, Percentile: d.Percentile})
	slot, outcome := &dep.Misses, "miss"
	if d.Hit {
		slot, outcome = &dep.Hits, "hit"
	}
	return slot.Get(func() *obs.Counter { return s.decisions(outcome, t.Name(), req.Workflow) })
}

// decisions resolves the janusd_decisions_total counter of one outcome
// and label set.
func (s *Server) decisions(outcome, tenant, workflow string) *obs.Counter {
	return s.obs.Counter("janusd_decisions_total", "outcome", outcome, "tenant", tenant, "workflow", workflow)
}

// maxDecideBody is the decide route's body limit, and maxDirectDecide
// the largest declared body the direct decode reads whole; a decide
// body is well under a hundred bytes.
const (
	maxDecideBody   = 1 << 20
	maxDirectDecide = 4 << 10
)

// decodeDecide reads and decodes a decide body. A body whose declared
// length is at most maxDirectDecide is read whole, and a DecideRequest
// in json.Marshal's form at its head is decoded directly. Everything
// else goes to json.Decoder over the same bytes under the route's
// limit, so what is accepted and what it decodes to are json.Decoder's,
// which decodes the first JSON value and ignores what follows it.
func decodeDecide(w http.ResponseWriter, r *http.Request) (DecideRequest, error) {
	var head []byte
	if n := r.ContentLength; n > 0 && n <= maxDirectDecide {
		head = make([]byte, n)
		// A read error leaves head short; the fallback below reads the
		// body on and meets the error again if it needs the bytes.
		k, _ := io.ReadFull(r.Body, head)
		head = head[:k]
		if req, ok := decodeDirect(head); ok {
			return req, nil
		}
	}
	// A variable of its own: the decoder's &req moves it to the heap.
	var req DecideRequest
	body := io.MultiReader(bytes.NewReader(head), http.MaxBytesReader(w, r.Body, maxDecideBody-int64(len(head))))
	err := json.NewDecoder(body).Decode(&req)
	return req, err
}

var decideFields = []string{"workflow", "suffix", "remaining_ms", "shape"}

// decodeDirect decodes a DecideRequest in json.Marshal's form from the
// head of data, ignoring what follows it as json.Decoder does, and
// reports whether it did.
func decodeDirect(data []byte) (DecideRequest, bool) {
	s := jsonscan.New(data)
	var req DecideRequest
	s.Fields(decideFields, func(i int) {
		switch i {
		case 0:
			req.Workflow = s.Str()
		case 1:
			req.Suffix = s.Int()
		case 2:
			req.RemainingMs = int64(s.Int())
		case 3:
			req.Shape = s.Str()
		}
	})
	return req, s.OK()
}

// writeDecide writes a decision exactly as writeJSON would, appending
// the body json.Encoder writes into one buffer.
func writeDecide(w http.ResponseWriter, d DecideResponse) {
	var buf [96]byte
	b := appendDecideResponse(buf[:0], d)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // as in writeJSON: the header is out, nothing to report to
}

// appendDecideResponse appends d as json.Encoder encodes it: compact,
// members in field order, then a newline.
func appendDecideResponse(b []byte, d DecideResponse) []byte {
	b = append(b, `{"millicores":`...)
	b = strconv.AppendInt(b, int64(d.Millicores), 10)
	b = append(b, `,"hit":`...)
	b = strconv.AppendBool(b, d.Hit)
	b = append(b, `,"percentile":`...)
	b = strconv.AppendInt(b, int64(d.Percentile), 10)
	return append(b, "}\n"...)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	wf := r.URL.Query().Get("workflow")
	a, ok := t.Adapter(wf)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"workflow %q not deployed for tenant %q", wf, t.Name())
		return
	}
	hits, misses, rate := a.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{Tenant: t.Name(), Workflow: wf, Hits: hits, Misses: misses, MissRate: rate})
}

// handleCatalog is the declarative control surface: GET returns the
// running catalog, PUT validates and atomically swaps in a replacement.
// An invalid catalog is rejected whole with the running one untouched.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if !s.requireAdmin(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	case http.MethodPut:
		if !requireJSON(w, r) {
			return
		}
		if !s.requireAdmin(w, r) {
			return
		}
		body, err := readBody(w, r, 64<<20)
		if err != nil {
			s.ObserveReload("http", err)
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%s", err)
			return
		}
		// Load validates the catalog before it swaps anything in, so
		// the body is decoded without a second validation pass.
		f, err := catalog.Decode(body)
		if err != nil {
			s.ObserveReload("http", err)
			writeError(w, http.StatusBadRequest, CodeInvalidCatalog, "%s", err)
			return
		}
		gen, changes, err := s.reg.Load(f)
		s.ObserveReload("http", err)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidCatalog, "%s", err)
			return
		}
		resp := ReloadResponse{Generation: gen, Tenants: len(f.Tenants), Changes: make([]string, len(changes))}
		for _, t := range f.Tenants {
			resp.Workflows += len(t.Workflows)
		}
		for i, c := range changes {
			resp.Changes[i] = c.String()
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or PUT required")
	}
}

// metricsFrameTimeout bounds the write of one /v1/metrics frame.
const metricsFrameTimeout = 10 * time.Second

// handleMetrics streams supervisor snapshots as NDJSON: one
// MetricsSnapshot per line every interval_ms (default 1000, floored at
// the server minimum) until the client disconnects or n frames have
// been written (n=0, the default, streams until disconnect). Each frame
// is flushed as it is written, so a live dashboard sees counters move
// while decide traffic is in flight.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if !s.requireAdmin(w, r) {
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "interval_ms must be a non-negative integer, got %q", v)
			return
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	if interval < s.metricsMinInterval {
		interval = s.metricsMinInterval
	}
	frames := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "n must be a non-negative integer, got %q", v)
			return
		}
		frames = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	ctx := r.Context()
	for sent := 0; ; sent++ {
		if frames > 0 && sent >= frames {
			return
		}
		// Terminate promptly on client hang-up: the blocking select below
		// can lose its race when the ticker and the cancellation are both
		// ready, so re-check before every frame — a disconnected client
		// never receives another write.
		select {
		case <-ctx.Done():
			return
		default:
		}
		s.refreshGeneration()
		snap := MetricsSnapshot{
			Generation: s.reg.Generation(),
			Tenants:    s.reg.MetricsSnapshot(),
			Points:     s.obs.Snapshot(),
		}
		// The server's WriteTimeout runs from the request's arrival, so
		// a stream longer than it would be cut; push the deadline past
		// each frame instead. A writer without deadlines, such as a
		// test recorder, streams without one.
		_ = rc.SetWriteDeadline(time.Now().Add(metricsFrameTimeout))
		if err := enc.Encode(snap); err != nil {
			return
		}
		_ = rc.Flush() // a writer that cannot flush delivers the frames when the stream ends
		if frames > 0 && sent+1 >= frames {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// readBody reads a request body of at most limit bytes. A body that
// declares its length, as Go clients do for a byte slice, is read into
// one buffer of exactly that size, where io.ReadAll's step-by-step
// growth would allocate about five times the size of a catalog. A body
// shorter than its declared length fails with io.ErrUnexpectedEOF; one
// with no declared length is read whole.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength < 0 {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// requireJSON enforces the JSON media type on the mutating endpoints: a
// body the server would parse as JSON anyway must declare itself as such,
// so misconfigured platforms fail loudly with a 415 instead of a
// confusing parse error. Media-type parameters (charset) are accepted.
func requireJSON(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "application/json" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || mt != "application/json" {
		writeError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
			"Content-Type must be application/json, got %q", ct)
		return false
	}
	return true
}

// writeError emits the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures after the header is out can only be logged; the
	// payloads here are all marshalable value types.
	_ = json.NewEncoder(w).Encode(v)
}
