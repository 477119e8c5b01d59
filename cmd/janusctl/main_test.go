package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"janus/internal/hints"
	"janus/internal/httpapi"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/profile"
	"janus/internal/synth"
)

// TestPipelineEndToEnd drives the developer-side offline pipeline exactly
// as the command line does — profile -> synthesize -> inspect -> decide ->
// submit — against a temp dir and an in-process janusd, checking each
// stage's artifact instead of its stdout.
func TestPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	profiles := filepath.Join(dir, "profiles.json")
	bundle := filepath.Join(dir, "bundle.json")

	// profile: a reduced sample count keeps the test fast; the artifact
	// must parse back as a profile set for the ia chain.
	if err := cmdProfile([]string{"-workflow", "ia", "-samples", "200", "-seed", "7", "-o", profiles}); err != nil {
		t.Fatalf("profile: %v", err)
	}
	data, err := os.ReadFile(profiles)
	if err != nil {
		t.Fatal(err)
	}
	set, err := profile.ParseSet(data)
	if err != nil {
		t.Fatalf("profile artifact does not parse: %v", err)
	}
	if set.Workflow.Name() != "ia" || set.Len() != 3 {
		t.Fatalf("profiled %s with %d groups", set.Workflow.Name(), set.Len())
	}

	// synthesize: the bundle must validate, carry one table per chain
	// suffix, and be condensed (every table non-empty).
	if err := cmdSynthesize([]string{"-profiles", profiles, "-mode", "janus", "-step-ms", "25", "-o", bundle}); err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	b, err := loadBundle(bundle)
	if err != nil {
		t.Fatalf("bundle artifact does not parse: %v", err)
	}
	if b.Workflow != "ia" || b.Stages() != 3 {
		t.Fatalf("bundle covers %s with %d tables", b.Workflow, b.Stages())
	}
	for _, tab := range b.Tables {
		if tab.Size() == 0 {
			t.Fatalf("suffix %d table is empty", tab.Suffix)
		}
	}

	// inspect and decide run off the same artifact: a budget at the SLO
	// must hit, a hopeless budget must miss (escalation).
	if err := cmdInspect([]string{"-bundle", bundle}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := cmdDecide([]string{"-bundle", bundle, "-suffix", "0", "-remaining", "3000ms"}); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if err := cmdDecide([]string{"-bundle", bundle, "-suffix", "2", "-remaining", "1ms"}); err != nil {
		t.Fatalf("decide on a miss budget: %v", err)
	}
	if r, ok := b.Tables[0].Lookup(3 * time.Second); !ok || r.Millicores <= 0 {
		t.Fatalf("SLO budget does not hit the synthesized table: %+v, %t", r, ok)
	}

	// submit: the bundle lands on a live adapter service and is queryable.
	srv := httpapi.NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := cmdSubmit([]string{"-bundle", bundle, "-server", ts.URL}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, ok := srv.Adapter("ia"); !ok {
		t.Fatal("submitted bundle not deployed on the service")
	}
}

// TestPipelineWorkflowFile covers the custom-workflow path: profile a
// JSON spec instead of a built-in chain, a static one and a dynamic one
// with a map step, and synthesize the profile file. The bundle must equal
// the one synthesized from the same profiles in memory, shape-variant
// tables included.
func TestPipelineWorkflowFile(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		groups int
	}{
		{`{"name":"custom","slo_ms":2000,"functions":[{"name":"a","function":"od"},{"name":"b","function":"qa"}],"edges":[["a","b"]]}`, 2},
		{`{"name":"mapped","slo_ms":3000,"functions":[{"name":"a","function":"od"},{"name":"b","function":"ts"},{"name":"c","function":"qa"}],` +
			`"edges":[["a","b"],["b","c"]],"dynamic":[{"step":"b","map":{"max_width":3}}]}`, 3},
	} {
		dir := t.TempDir()
		spec := filepath.Join(dir, "wf.json")
		out := filepath.Join(dir, "profiles.json")
		bundle := filepath.Join(dir, "bundle.json")
		if err := os.WriteFile(spec, []byte(tc.spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdProfile([]string{"-workflow-file", spec, "-samples", "150", "-o", out}); err != nil {
			t.Fatalf("profile custom workflow: %v", err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		set, err := profile.ParseSet(data)
		if err != nil {
			t.Fatal(err)
		}
		w := set.Workflow
		if set.Len() != tc.groups || w.IsDynamic() != (len(set.Shaped) > 0) {
			t.Fatalf("profiled %s with %d groups and %d shaped", w.Name(), set.Len(), len(set.Shaped))
		}
		if err := cmdSynthesize([]string{"-profiles", out, "-step-ms", "20", "-o", bundle}); err != nil {
			t.Fatalf("synthesize %s: %v", w.Name(), err)
		}
		got, err := loadBundle(bundle)
		if err != nil {
			t.Fatal(err)
		}
		coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 1)
		if err != nil {
			t.Fatal(err)
		}
		prof.SamplesPerConfig = 150
		mem, err := prof.ProfileWorkflow(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		sy, err := synth.New(synth.Config{Profiles: mem, Weight: 1, Mode: synth.ModeJanus, BudgetStepMs: 20})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sy.GenerateBundle()
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Bundle.Shaped) != len(mem.Shaped) || !got.Equal(want.Bundle) {
			t.Fatalf("%s: bundle from the profile file differs from the in-memory synthesis", w.Name())
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	dir := t.TempDir()
	if err := cmdProfile([]string{"-workflow", "nope", "-o", filepath.Join(dir, "p.json")}); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown workflow error = %v", err)
	}
	if _, err := parseMode("janus++"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := cmdSynthesize([]string{"-profiles", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing profiles accepted")
	}
	if err := cmdInspect([]string{"-bundle", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing bundle accepted")
	}
	// decide validates the suffix against the bundle.
	tab, err := hints.Condense(&hints.RawTable{Suffix: 0, Weight: 1, Hints: []hints.Hint{
		{BudgetMs: 1000, HeadMillicores: 1000, HeadPercentile: 99},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b := &hints.Bundle{Workflow: "w", Batch: 1, Weight: 1, SLOMs: 1000, MaxMillicores: 3000, Tables: []*hints.Table{tab}}
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bundle.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdDecide([]string{"-bundle", path, "-suffix", "5", "-remaining", "1s"}); err == nil {
		t.Fatal("out-of-range suffix accepted")
	}
}
