// Control plane: the declarative multi-tenant catalog end to end. The
// operator declares {tenant -> workflows, API keys, quotas} in one JSON
// file; janusd validates the whole file and swaps it in atomically —
// at boot, on SIGHUP, or over PUT /v1/catalog — while decide traffic is
// in flight. This example is also the catalog-file reference: it
// prints the exact JSON janusd -catalog accepts.
//
//  1. Profile + synthesize hints for two workflows (the developer side).
//  2. Declare a two-tenant catalog: acme serves IA under a token-bucket
//     quota, globex serves VA unmetered; an admin key gates the
//     operator surface.
//  3. Boot the control plane in-process, load the catalog, and decide
//     as each tenant with its own API key.
//  4. Exhaust acme's quota and observe the 429 + Retry-After.
//  5. Hot-swap a new catalog generation over PUT /v1/catalog and show
//     the diff the reload reports.
//
// Run it from the repository root:
//
//	go run ./examples/control-plane
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"janus"
)

func deploy(name string, w *janus.Workflow, seed uint64) *janus.Deployment {
	coloc, err := janus.NewColocationSampler([]float64{0.4, 0.4, 0.2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("developer: profiling %s and synthesizing hints...\n", name)
	dep, err := janus.Deploy(w, janus.DeployOptions{
		Functions:        janus.Catalog(),
		Colocation:       coloc,
		Interference:     janus.DefaultInterference(),
		Seed:             seed,
		SamplesPerConfig: 400,
		BudgetStepMs:     10,
	})
	if err != nil {
		log.Fatal(err)
	}
	return dep
}

func main() {
	ia := deploy("ia", janus.IntelligentAssistant(), 11)
	va := deploy("va", janus.VideoAnalyze(), 12)

	// --- The declarative catalog: what janusd -catalog loads. ---
	cat := &janus.TenantCatalog{
		Version:  1,
		AdminKey: "admin-secret",
		Tenants: map[string]*janus.CatalogTenant{
			"acme": {
				APIKey: "acme-key",
				Quota:  &janus.CatalogQuota{RatePerSec: 50, Burst: 3},
				Workflows: map[string]*janus.CatalogEntry{
					"ia": {Bundle: ia.Bundle()},
				},
			},
			"globex": {
				APIKey: "globex-key",
				Workflows: map[string]*janus.CatalogEntry{
					"va": {Bundle: va.Bundle()},
				},
			},
		},
	}
	data, err := cat.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "janus-catalog.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	fmt.Printf("\noperator: catalog written to %s (boot janusd with -catalog %s)\n", path, path)
	// The reference shape, bundles elided for brevity.
	excerpt := string(data)
	if i := strings.Index(excerpt, `"tables"`); i > 0 {
		excerpt = excerpt[:i] + `"tables": [ ... condensed hint tables ... ] } } } ... }`
	}
	fmt.Println(excerpt)

	// --- Boot the control plane and load the catalog. ---
	srv := janus.NewAdapterServer()
	if _, _, err := srv.Registry().Load(cat); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("\nprovider: control plane at %s, catalog generation %d\n", base, srv.Registry().Generation())

	// --- Each tenant decides with its own key. ---
	acme := janus.NewAdapterClient(base).WithAPIKey("acme-key")
	globex := janus.NewAdapterClient(base).WithAPIKey("globex-key")
	d, err := acme.Decide("ia", 0, 2900*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acme:   ia suffix 0 @ 2900ms -> %d millicores (hit=%v)\n", d.Millicores, d.Hit)
	d, err = globex.Decide("va", 0, 9*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("globex: va suffix 0 @ 9s -> %d millicores (hit=%v)\n", d.Millicores, d.Hit)
	// Tenant isolation: acme cannot reach globex's workflow.
	if _, err := acme.Decide("va", 0, time.Second); err != nil {
		fmt.Printf("acme asking for va: %v\n", err)
	}

	// --- Admission control: burst 3, then 429 + Retry-After. ---
	fmt.Println("\nhammering acme past its burst of 3:")
	for i := 0; i < 5; i++ {
		_, err := acme.Decide("ia", 0, 2500*time.Millisecond)
		var apiErr *janus.AdapterAPIError
		switch {
		case err == nil:
			fmt.Printf("  decide %d: admitted\n", i+1)
		case errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests:
			fmt.Printf("  decide %d: 429 %s (Retry-After %v)\n", i+1, apiErr.Code, apiErr.RetryAfter)
		default:
			log.Fatal(err)
		}
	}

	// --- Hot reload: swap the whole catalog atomically over HTTP. ---
	// A fresh acme declaration (don't mutate the running catalog's
	// tenants in place — the diff would see two identical files).
	next := &janus.TenantCatalog{
		Version:  2,
		AdminKey: "admin-secret",
		Tenants: map[string]*janus.CatalogTenant{
			"acme": {
				APIKey: "acme-key",
				Quota:  &janus.CatalogQuota{RatePerSec: 200, Burst: 50},
				Workflows: map[string]*janus.CatalogEntry{
					"ia": {Bundle: ia.Bundle()},
				},
			},
			"globex": cat.Tenants["globex"],
		},
	}
	fmt.Println("\noperator: pushing generation 2 (acme's quota raised):")
	for _, c := range janus.DiffCatalogs(cat, next) {
		fmt.Printf("  local diff: %s\n", c)
	}
	admin := janus.NewAdapterClient(base).WithAPIKey("admin-secret")
	rr, err := admin.PushCatalog(next)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  swapped in generation %d (%d tenants, %d workflows)\n", rr.Generation, rr.Tenants, rr.Workflows)
	for _, c := range rr.Changes {
		fmt.Printf("  server diff: %s\n", c)
	}
	// The raised quota admits immediately; supervisor stats survived the
	// swap (the adapter carried over — cumulative counters intact).
	if _, err := acme.Decide("ia", 0, 2500*time.Millisecond); err != nil {
		log.Fatal(err)
	}
	st, err := acme.Stats("ia")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nacme/ia after the swap: %d hits, %d misses (counters carried across the reload)\n", st.Hits, st.Misses)
}
