package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"janus/internal/obs"
)

// This file is the control plane's operator-grade telemetry: the
// always-on metrics registry behind GET /v1/prometheus (and the Points
// section of /v1/metrics), the per-request instrumentation middleware,
// and the structured access log janusd enables with -log-requests.

// decideLatencyBucketsUs are the decide-path latency histogram bounds in
// microseconds: the adapter decision is a table lookup, so the
// interesting range is tens of microseconds to low milliseconds.
var decideLatencyBucketsUs = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}

// Metrics exposes the server's metrics registry (scrapable at
// /v1/prometheus, embedded in /v1/metrics frames, extendable by
// in-process embeddings).
func (s *Server) Metrics() *obs.Registry { return s.obs }

// SetVersion records the build's version string (janusd stamps it via
// -ldflags "-X main.version=..."): reported by /v1/healthz and exported
// as the janusd_build_info gauge. Call before serving.
func (s *Server) SetVersion(v string) {
	s.version = v
	s.obs.Gauge("janusd_build_info", "version", v).Set(1)
}

// SetAccessLog enables structured access logging: one line per request
// (timestamp, method, path, tenant, status, latency, response bytes) to
// w. w must be safe for concurrent writes the way os.Stderr and
// log.Writer() are (whole-line writes). nil disables. Call before
// serving.
func (s *Server) SetAccessLog(w io.Writer) { s.accessLog = w }

// routeLabel bounds the path label's cardinality to the known routes, so
// a scanner probing random URLs cannot grow the registry without bound.
func routeLabel(p string) string {
	switch p {
	case "/v1/healthz", "/v1/bundles", "/v1/decide", "/v1/stats",
		"/v1/catalog", "/v1/metrics", "/v1/prometheus":
		return p
	}
	return "other"
}

// statusRecorder captures the response status and byte count for the
// instrumentation middleware. Flush passes through so the /v1/metrics
// stream keeps its per-frame flushing behind the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the route mux with the request counter and the
// optional access log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		s.obs.Counter("janusd_http_requests_total",
			"path", routeLabel(r.URL.Path), "status", strconv.Itoa(status)).Inc()
		if s.accessLog != nil {
			tenant := ""
			if t, ok := s.reg.Authenticate(apiKey(r)); ok {
				tenant = t.Name()
			}
			fmt.Fprintf(s.accessLog, "%s method=%s path=%s tenant=%s status=%d dur=%s bytes=%d\n",
				start.UTC().Format(time.RFC3339Nano), r.Method, r.URL.Path, tenant,
				status, s.now().Sub(start).Round(time.Microsecond), rec.bytes)
		}
	})
}

// observeDecide records one decide call's outcome and latency. outcome
// is one of invalid, unauthorized, quota, not_found, error, hit, miss;
// tenant and workflow stay empty until resolved against the catalog
// (workflow in particular is request-controlled, so only deployed names
// become label values).
func (s *Server) observeDecide(outcome, tenant, workflow string, start time.Time) {
	s.obs.Counter("janusd_decisions_total",
		"outcome", outcome, "tenant", tenant, "workflow", workflow).Inc()
	s.obs.Histogram("janusd_decide_latency_us", decideLatencyBucketsUs).
		Observe(s.now().Sub(start).Microseconds())
}

// ObserveReload records one catalog reload attempt in
// janusd_catalog_reloads_total, labelled by source ("http" for PUT
// /v1/catalog, "sighup" for janusd's signal reload) and outcome
// ("swapped", or "rejected" when err is non-nil and the running catalog
// kept serving).
func (s *Server) ObserveReload(source string, err error) {
	outcome := "swapped"
	if err != nil {
		outcome = "rejected"
	}
	s.obs.Counter("janusd_catalog_reloads_total", "source", source, "outcome", outcome).Inc()
}

// refreshGeneration copies the registry's catalog generation into the
// janusd_catalog_generation gauge. Both scrape surfaces call it, so the
// gauge is right whichever path moved the generation: a reload, the boot
// load or a bundle submission.
func (s *Server) refreshGeneration() {
	s.obs.Gauge("janusd_catalog_generation").Set(s.reg.Generation())
}

// handlePrometheus renders the registry in the Prometheus text
// exposition format — the scrape surface agreeing, family for family,
// with the Points section of the /v1/metrics stream (both read the same
// registry).
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET required")
		return
	}
	if !s.requireAdmin(w, r) {
		return
	}
	s.refreshGeneration()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// Write errors mean the scraper hung up mid-body; nothing to do.
	_ = obs.WritePrometheus(w, s.obs)
}
