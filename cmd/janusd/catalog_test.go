package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"janus/internal/catalog"
	"janus/internal/hints"
	"janus/internal/httpapi"
)

// writeCatalog writes a one-tenant catalog answering mc millicores and
// returns the path.
func writeCatalog(t *testing.T, path string, mc int) {
	t.Helper()
	tab, err := hints.Condense(&hints.RawTable{Suffix: 0, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 2000, HeadMillicores: mc, HeadPercentile: 99},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := &catalog.File{
		Version: 1,
		Tenants: map[string]*catalog.Tenant{
			"acme": {
				APIKey: "key-acme",
				Workflows: map[string]*catalog.Entry{
					"ia": {Bundle: &hints.Bundle{
						Workflow: "ia", Batch: 1, Weight: 1, SLOMs: 3000, MaxMillicores: 3000,
						Tables: []*hints.Table{tab},
					}},
				},
			},
		},
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCatalogFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	writeCatalog(t, path, 1100)
	reg := catalog.NewRegistry()
	gen, changes, err := loadCatalogFile(reg, path)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || len(changes) != 1 {
		t.Fatalf("boot load: gen=%d changes=%v", gen, changes)
	}
	ten, ok := reg.Authenticate("key-acme")
	if !ok {
		t.Fatal("loaded tenant missing")
	}
	a, _ := ten.Adapter("ia")
	if d, _ := a.Decide(0, 2500*time.Millisecond); d.Millicores != 1100 {
		t.Fatalf("decision = %+v", d)
	}

	// A missing file names the path and leaves the registry untouched.
	if _, _, err := loadCatalogFile(reg, filepath.Join(dir, "missing.json")); err == nil ||
		!strings.Contains(err.Error(), "missing.json") {
		t.Fatalf("missing file error = %v", err)
	}
	// So does a corrupt file.
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadCatalogFile(reg, corrupt); err == nil || !strings.Contains(err.Error(), "corrupt.json") {
		t.Fatalf("corrupt file error = %v", err)
	}
	// And a structurally-valid but invalid catalog, which Load rejects
	// under the same path prefix the decode errors carry.
	if err := os.WriteFile(corrupt, []byte(`{"version":1,"tenants":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadCatalogFile(reg, corrupt); err == nil {
		t.Fatal("invalid catalog loaded")
	} else if want := "catalog " + corrupt + ": catalog: no tenants declared"; err.Error() != want {
		t.Fatalf("invalid catalog error = %q, want %q", err, want)
	}
	if reg.Generation() != 1 {
		t.Fatalf("failed loads moved the generation to %d", reg.Generation())
	}
}

// TestReloadOnSIGHUP drives the reload goroutine with a real SIGHUP: the
// rewritten file swaps in, a broken file is rejected with the running
// catalog left serving, each outcome is counted in the server's metrics,
// and the goroutine exits on context cancel.
func TestReloadOnSIGHUP(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	writeCatalog(t, path, 1100)
	srv := httpapi.NewServer()
	reg := srv.Registry()
	if _, _, err := loadCatalogFile(reg, path); err != nil {
		t.Fatal(err)
	}
	scrapeHas := func(want ...string) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/prometheus", nil))
		for _, w := range want {
			if !strings.Contains(rec.Body.String(), w+"\n") {
				t.Fatalf("prometheus output missing %q:\n%s", w, rec.Body.String())
			}
		}
	}
	scrapeHas("janusd_catalog_generation 1")

	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		reloadOnSIGHUP(ctx, srv, path, logf)
	}()
	// Give signal.Notify a beat to register before raising.
	time.Sleep(20 * time.Millisecond)

	raise := func() {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	// waitLog waits for a log line containing want; the reload goroutine
	// logs only after it has counted the outcome.
	waitLog := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			found := false
			for _, l := range logs {
				found = found || strings.Contains(l, want)
			}
			mu.Unlock()
			if found {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no log line contains %q", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	writeCatalog(t, path, 1101)
	raise()
	waitLog("swapped in generation 2")
	scrapeHas(`janusd_catalog_reloads_total{outcome="swapped",source="sighup"} 1`, "janusd_catalog_generation 2")
	ten, _ := reg.Authenticate("key-acme")
	a, _ := ten.Adapter("ia")
	if d, _ := a.Decide(0, 2500*time.Millisecond); d.Millicores != 1101 {
		t.Fatalf("post-SIGHUP decision = %+v", d)
	}

	// Break the file: the reload is rejected, generation and serving
	// unchanged, and the rejection is logged.
	if err := os.WriteFile(path, []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	raise()
	waitLog("rejected")
	scrapeHas(`janusd_catalog_reloads_total{outcome="rejected",source="sighup"} 1`,
		`janusd_catalog_reloads_total{outcome="swapped",source="sighup"} 1`, "janusd_catalog_generation 2")
	if reg.Generation() != 2 {
		t.Fatalf("broken reload moved the generation to %d", reg.Generation())
	}
	if d, _ := a.Decide(0, 2500*time.Millisecond); d.Millicores != 1101 {
		t.Fatalf("broken reload disturbed serving: %+v", d)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reload goroutine did not exit on cancel")
	}
}
