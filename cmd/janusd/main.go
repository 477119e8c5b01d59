// Command janusd runs the provider-side control plane: the online half
// of Janus's bilateral engagement. The operator declares tenants,
// workflows, hint bundles, API keys, and quotas in a catalog file that
// loads at boot and hot-reloads — atomically, without dropping in-flight
// decide traffic — on SIGHUP or PUT /v1/catalog. Developers may still
// submit individual bundles over HTTP (the open-tenant path); the
// serving platform reports remaining time budgets as functions finish
// and receives resize decisions for the next function.
//
// Usage:
//
//	janusd -addr :8080 [-catalog catalog.json] [-miss-threshold 0.01] [-drain-timeout 10s]
//
// API:
//
//	POST /v1/bundles          submit a hints bundle (open tenant)
//	POST /v1/decide           {"workflow","suffix","remaining_ms"} -> decision (auth, quota)
//	GET  /v1/stats?workflow=  supervisor hit/miss counters for the calling tenant
//	GET  /v1/catalog          the running catalog
//	PUT  /v1/catalog          validate + atomically swap in a new catalog
//	GET  /v1/metrics          NDJSON stream of per-tenant supervisor snapshots + registry points
//	GET  /v1/prometheus       metrics registry in Prometheus text exposition format
//	GET  /v1/healthz          liveness + catalog generation + build version
//
// The binary's version string is stamped at build time with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/janusd
//
// and surfaces in /v1/healthz and the janusd_build_info metric.
// -log-requests enables one structured access-log line per request
// (timestamp, method, path, tenant, status, latency, bytes) on stderr.
//
// On SIGHUP the catalog file is re-read, validated, and swapped in
// all-or-nothing; a bad file leaves the running catalog serving. On
// SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain-timeout before exiting, so a
// platform rollout never kills a decision mid-request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"janus/internal/adapter"
	"janus/internal/catalog"
	"janus/internal/httpapi"
)

// version is the build stamp: overridden by the release pipeline via
// -ldflags "-X main.version=...", "dev" on plain go-build binaries.
var version = "dev"

// serve runs the HTTP server on the listener until ctx is cancelled, then
// drains in-flight requests via http.Server.Shutdown bounded by drain.
// It returns nil on a clean drain, the Shutdown error when the timeout
// expires first, and the Serve error if the server fails outright.
func serve(ctx context.Context, server *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; ErrServerClosed here would mean an
		// external Shutdown raced ours, which is still a clean exit.
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return err
	}
	// Shutdown unblocked Serve; collect its ErrServerClosed so the
	// goroutine never leaks.
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newHTTPServer returns janusd's http.Server for h. Its timeouts are
// sized for the largest request, a 64 MiB PUT /v1/catalog: ReadTimeout
// lets its body arrive at about 0.5 MiB/s, and WriteTimeout, which runs
// from the end of the request header to the end of the response, adds
// the parse, the swap and the answer to that. A /v1/metrics stream
// outlives WriteTimeout by pushing its write deadline past each frame.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      3 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// loadCatalogFile reads, decodes, validates, and atomically installs the
// catalog at path; Load does the validating, once. The registry is
// untouched on any error — the reload contract SIGHUP relies on.
func loadCatalogFile(reg *catalog.Registry, path string) (int64, []catalog.Change, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("catalog %s: %w", path, err)
	}
	f, err := catalog.Decode(data)
	if err != nil {
		return 0, nil, fmt.Errorf("catalog %s: %w", path, err)
	}
	gen, changes, err := reg.Load(f)
	if err != nil {
		return 0, nil, fmt.Errorf("catalog %s: %w", path, err)
	}
	return gen, changes, nil
}

// reloadOnSIGHUP re-reads the catalog file into srv's registry on every
// SIGHUP until ctx ends, counting the swap (or the rejection, with the
// running catalog left serving) in srv's metrics and logging it.
func reloadOnSIGHUP(ctx context.Context, srv *httpapi.Server, path string, logf func(string, ...any)) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			gen, changes, err := loadCatalogFile(srv.Registry(), path)
			srv.ObserveReload("sighup", err)
			if err != nil {
				logf("janusd: SIGHUP reload rejected, catalog unchanged: %v", err)
				continue
			}
			logf("janusd: SIGHUP reload swapped in generation %d (%d changes)", gen, len(changes))
			for _, c := range changes {
				logf("janusd:   %s", c)
			}
		}
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	catalogPath := flag.String("catalog", "",
		"declarative tenant catalog (JSON); loaded at boot and re-loaded on SIGHUP")
	missThreshold := flag.Float64("miss-threshold", adapter.DefaultMissThreshold,
		"miss rate above which the supervisor flags hint regeneration")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long to drain in-flight requests after SIGINT/SIGTERM")
	logRequests := flag.Bool("log-requests", false,
		"write one structured access-log line per request to stderr")
	flag.Parse()

	srv := httpapi.NewServer(
		adapter.WithMissThreshold(*missThreshold),
		adapter.WithRegenerateCallback(func(rate float64) {
			log.Printf("supervisor: miss rate %.3f exceeded threshold; notify the developer to regenerate hints", rate)
		}),
	)
	srv.SetVersion(version)
	if *logRequests {
		srv.SetAccessLog(os.Stderr)
	}
	if *catalogPath != "" {
		gen, _, err := loadCatalogFile(srv.Registry(), *catalogPath)
		if err != nil {
			log.Fatal(err)
		}
		snap := srv.Registry().Snapshot()
		log.Printf("janusd: catalog generation %d loaded from %s (%d tenants)", gen, *catalogPath, len(snap.Tenants))
	}
	server := newHTTPServer(srv.Handler())
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *catalogPath != "" {
		go reloadOnSIGHUP(ctx, srv, *catalogPath, log.Printf)
	}
	log.Printf("janusd %s: control plane listening on %s", version, ln.Addr())
	if err := serve(ctx, server, ln, *drainTimeout); err != nil {
		log.Fatal(err)
	}
	log.Printf("janusd: drained and stopped")
}
