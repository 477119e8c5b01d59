package httpapi

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"slices"
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

// routes are the path label's values: the known routes, then "other",
// so a scanner probing random URLs cannot grow the registry without
// bound.
var routes = [...]string{"/v1/healthz", "/v1/bundles", "/v1/decide", "/v1/stats",
	"/v1/catalog", "/v1/metrics", "/v1/prometheus", "other"}

// statuses are the codes the handlers answer with, each a column of the
// request-counter table; a code outside it is counted by label.
var statuses = [...]int{200, 400, 401, 404, 405, 415, 429, 500}

// requestCounter returns the janusd_http_requests_total counter for a
// request path and status, resolving a table cell on its first request
// so that no series appears before its first count.
func (s *Server) requestCounter(path string, status int) *obs.Counter {
	route := slices.Index(routes[:len(routes)-1], path)
	if route < 0 {
		route = len(routes) - 1
	}
	resolve := func() *obs.Counter {
		return s.obs.Counter("janusd_http_requests_total", "path", routes[route], "status", strconv.Itoa(status))
	}
	col := slices.Index(statuses[:], status)
	if col < 0 {
		return resolve()
	}
	return s.requests[route][col].Get(resolve)
}

// statusRecorder captures the response status and byte count for the
// instrumentation middleware. Unwrap lets http.ResponseController reach
// the connection behind it, so the /v1/metrics stream can flush each
// frame and push its write deadline.
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

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// instrument wraps the route mux with the request counter, the optional
// access log and panic recovery. A handler panic is logged with its
// stack and counted in janusd_panics_total; if nothing was written yet
// the request answers 500 with the error envelope, and otherwise the
// response is aborted, so a client never mistakes a cut-off body for a
// whole one. http.ErrAbortHandler, a handler's deliberate abort, passes
// through to net/http untouched.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == http.ErrAbortHandler {
				panic(v)
			}
			if v != nil {
				s.panics.Inc()
				log.Printf("httpapi: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				if rec.status != 0 {
					// The response is under way: count it, then abort it.
					s.finish(r, rec, start)
					panic(http.ErrAbortHandler)
				}
				writeError(rec, http.StatusInternalServerError, CodeInternal, "internal error")
			}
			s.finish(r, rec, start)
		}()
		next.ServeHTTP(rec, r)
	})
}

// finish counts a request and writes its access-log line.
func (s *Server) finish(r *http.Request, rec *statusRecorder, start time.Time) {
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	s.requestCounter(r.URL.Path, status).Inc()
	if s.accessLog != nil {
		tenant := ""
		if t, ok := s.reg.Authenticate(apiKey(r)); ok {
			tenant = t.Name()
		}
		fmt.Fprintf(s.accessLog, "%s method=%s path=%s tenant=%s status=%d dur=%s bytes=%d\n",
			start.UTC().Format(time.RFC3339Nano), r.Method, r.URL.Path, tenant,
			status, s.now().Sub(start).Round(time.Microsecond), rec.bytes)
	}
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
