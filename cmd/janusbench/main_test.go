package main

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"janus/internal/experiment"
)

func TestResolveTargetsAll(t *testing.T) {
	targets, err := resolveTargets("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != len(order) {
		t.Fatalf("all resolves to %d targets, want %d", len(targets), len(order))
	}
	found := false
	for _, n := range targets {
		if n == "mix" {
			found = true
		}
	}
	if !found {
		t.Fatal("the all sequence does not include the mix experiment")
	}
}

func TestResolveTargetsSingle(t *testing.T) {
	for _, name := range []string{"mix", "sp", "dag", "fig4", "overhead"} {
		targets, err := resolveTargets(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(targets) != 1 || targets[0] != name {
			t.Fatalf("resolveTargets(%s) = %v", name, targets)
		}
	}
}

func TestResolveTargetsUnknown(t *testing.T) {
	_, err := resolveTargets("fig99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "fig99") || !strings.Contains(err.Error(), "-list") {
		t.Fatalf("error %q should name the experiment and point at -list", err)
	}
}

func TestResolveParallelism(t *testing.T) {
	if _, err := resolveParallelism(-1); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	n, err := resolveParallelism(0)
	if err != nil || n != runtime.GOMAXPROCS(0) {
		t.Fatalf("resolveParallelism(0) = %d, %v; want GOMAXPROCS", n, err)
	}
	n, err = resolveParallelism(4)
	if err != nil || n != 4 {
		t.Fatalf("resolveParallelism(4) = %d, %v", n, err)
	}
}

// TestListOutput pins the -list surface: every registered experiment
// appears exactly once with a non-empty one-line description, and the
// descriptions share one column however long a name is.
func TestListOutput(t *testing.T) {
	out := listString()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(experiments) {
		t.Fatalf("-list prints %d lines for %d experiments:\n%s", len(lines), len(experiments), out)
	}
	descCol := strings.Index(lines[0], experiments[order[0]].desc)
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("line %d lacks a description: %q", i, line)
		}
		name := fields[0]
		e, ok := experiments[name]
		if !ok {
			t.Fatalf("line %d names unknown experiment %q", i, name)
		}
		if e.desc == "" || !strings.Contains(line, e.desc) {
			t.Fatalf("line %d does not carry %s's description: %q", i, name, line)
		}
		if col := strings.Index(line, e.desc); col != descCol {
			t.Fatalf("line %d starts its description at column %d, want %d: %q", i, col, descCol, line)
		}
	}
	if !strings.Contains(out, "dag") {
		t.Fatal("-list omits the dag experiment")
	}
	// The catalog surfaces added after the figure set must be listed too:
	// the -list output is the discovery surface the doc comment points at.
	for _, name := range []string{"replay", "fleet", "trigger"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list omits the %s experiment", name)
		}
	}
}

// TestOrderMatchesExperiments keeps the -experiment all sequence and the
// experiment registry in lockstep: every registered experiment runs under
// "all", and the sequence names only registered experiments.
func TestOrderMatchesExperiments(t *testing.T) {
	inOrder := map[string]bool{}
	for _, n := range order {
		if inOrder[n] {
			t.Errorf("experiment %s appears twice in the all sequence", n)
		}
		inOrder[n] = true
		if _, ok := experiments[n]; !ok {
			t.Errorf("ordered experiment %s is not registered", n)
		}
	}
	for n := range experiments {
		if !inOrder[n] {
			t.Errorf("registered experiment %s missing from the all sequence", n)
		}
	}
}

// TestJSONSchemaRoundTrips pins the -json output schema: a populated
// result survives a marshal/unmarshal cycle with every field intact, so
// recorded BENCH_*.json trajectories stay parseable.
func TestJSONSchemaRoundTrips(t *testing.T) {
	rows, err := toBenchRows([]experiment.ReplayRow{{
		Config:         experiment.ReplayAutoscaleRegen,
		Tenant:         "ia",
		SLO:            3 * time.Second,
		Requests:       110,
		P50:            1910 * time.Millisecond,
		P99:            2695 * time.Millisecond,
		SLOAttainment:  0.9909,
		MeanMillicores: 5461.8,
		MissRate:       0.0576,
		ColdStarts:     13,
		Parked:         1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	in := benchResult{Experiment: "replay", ElapsedMs: 1234, Rows: rows, Text: "rendered table"}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out benchResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("schema does not round-trip:\n in: %+v\nout: %+v", in, out)
	}
	// The row keys are the documented schema, not Go field names.
	for _, key := range []string{"config", "tenant", "slo_ns", "requests", "p50_ns", "p99_ns",
		"slo_attainment", "mean_millicores", "miss_rate", "cold_starts", "parked"} {
		if _, ok := out.Rows[0][key]; !ok {
			t.Errorf("row lacks schema key %q (have %v)", key, out.Rows[0])
		}
	}
}

// TestJSONRowsOmittedWithoutExtractor keeps text-only experiments honest
// in the schema: no rows field, text still present.
func TestJSONRowsOmittedWithoutExtractor(t *testing.T) {
	data, err := json.Marshal(benchResult{Experiment: "fig4", ElapsedMs: 1, Text: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "rows") {
		t.Fatalf("empty rows serialized: %s", data)
	}
}

// TestReplayRegistered keeps the new replay experiment wired through the
// run-selection surfaces: registry, all-sequence, and row extractor.
func TestReplayRegistered(t *testing.T) {
	targets, err := resolveTargets("replay")
	if err != nil || len(targets) != 1 || targets[0] != "replay" {
		t.Fatalf("resolveTargets(replay) = %v, %v", targets, err)
	}
	e, ok := experiments["replay"]
	if !ok {
		t.Fatal("replay not registered")
	}
	if e.rows == nil {
		t.Fatal("replay has no -json row extractor")
	}
	inOrder := false
	for _, n := range order {
		if n == "replay" {
			inOrder = true
		}
	}
	if !inOrder {
		t.Fatal("replay missing from the all sequence")
	}
}

// TestTriggerRegistered keeps the dynamic-orchestration scenario wired
// through the run-selection surfaces: registry, all-sequence, -json row
// extractor, and a description that names both comparison arms.
func TestTriggerRegistered(t *testing.T) {
	targets, err := resolveTargets("trigger")
	if err != nil || len(targets) != 1 || targets[0] != "trigger" {
		t.Fatalf("resolveTargets(trigger) = %v, %v", targets, err)
	}
	e, ok := experiments["trigger"]
	if !ok {
		t.Fatal("trigger not registered")
	}
	if e.rows == nil {
		t.Fatal("trigger has no -json row extractor")
	}
	if !strings.Contains(e.desc, "worst-case") || !strings.Contains(e.desc, "shape-aware") {
		t.Fatalf("trigger description does not name the comparison arms: %q", e.desc)
	}
	inOrder := false
	for _, n := range order {
		if n == "trigger" {
			inOrder = true
		}
	}
	if !inOrder {
		t.Fatal("trigger missing from the all sequence")
	}
}
