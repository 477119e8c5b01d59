package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"janus/internal/httpapi"
)

// startServe runs serve() with server on an ephemeral port and returns
// the base URL, the cancel that simulates SIGINT/SIGTERM, and the serve
// result channel.
func startServe(t *testing.T, server *http.Server, drain time.Duration) (string, context.CancelFunc, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, server, ln, drain) }()
	return "http://" + ln.Addr().String(), cancel, done
}

func TestServeServesUntilSignal(t *testing.T) {
	url, cancel, done := startServe(t, newHTTPServer(httpapi.NewServer().Handler()), 5*time.Second)
	defer cancel()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after the signal")
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get(url + "/v1/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// TestServeDrainsInFlightRequest pins the drain path: a request in flight
// when the signal arrives completes with a 200 instead of dying with the
// process.
func TestServeDrainsInFlightRequest(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "drained")
	})
	url, cancel, done := startServe(t, newHTTPServer(mux), 5*time.Second)
	defer cancel()

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(url + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body: string(body), err: err}
	}()

	<-entered // the request is in the handler
	cancel()  // SIGINT/SIGTERM arrives mid-request

	// Shutdown must wait for the handler, not kill it.
	select {
	case err := <-done:
		t.Fatalf("serve returned (%v) before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case r := <-got:
		if r.err != nil || r.body != "drained" {
			t.Fatalf("in-flight request got %q, %v", r.body, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after draining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after the drain")
	}
}

// TestServeDrainTimeoutGivesUp pins the bounded drain: a handler that
// never finishes cannot wedge shutdown past the timeout.
func TestServeDrainTimeoutGivesUp(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	mux := http.NewServeMux()
	mux.HandleFunc("/wedge", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	url, cancel, done := startServe(t, newHTTPServer(mux), 50*time.Millisecond)
	defer cancel()
	go func() {
		resp, err := http.Get(url + "/wedge")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serve reported a clean drain despite the wedged handler")
		}
		if !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("drain-timeout error = %v, want a deadline error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not give up at the drain timeout")
	}
}

// TestMetricsStreamOutlivesWriteTimeout serves janusd's http.Server over
// a real listener with its WriteTimeout cut to 200 ms and reads a
// /v1/metrics stream of ten frames 50 ms apart: every frame arrives,
// because the stream pushes its write deadline past each one. Without
// that push the server cuts the stream after its third frame.
func TestMetricsStreamOutlivesWriteTimeout(t *testing.T) {
	server := newHTTPServer(httpapi.NewServer().Handler())
	if server.ReadHeaderTimeout <= 0 || server.ReadTimeout <= 0 || server.WriteTimeout <= 0 || server.IdleTimeout <= 0 {
		t.Fatalf("janusd's server leaves a timeout unset: %+v", server)
	}
	server.WriteTimeout = 200 * time.Millisecond
	url, cancel, done := startServe(t, server, 5*time.Second)
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	start := time.Now()
	resp, err := http.Get(url + "/v1/metrics?n=10&interval_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream cut after %v: %v", time.Since(start), err)
	}
	if frames := strings.Count(string(body), "\n"); frames != 10 {
		t.Fatalf("stream delivered %d frames, want 10", frames)
	}
	if took := time.Since(start); took <= server.WriteTimeout {
		t.Fatalf("stream took %v, no longer than the %v WriteTimeout it must outlive", took, server.WriteTimeout)
	}
}
