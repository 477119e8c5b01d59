package experiment

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"janus/internal/platform"
	"janus/internal/synth"
	"janus/internal/workflow"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current engine output")

// stageNode is the workflow node a stage executed: its (Stage, Branch)
// coordinates index w's decision groups.
func stageNode(w *workflow.Workflow, st *platform.StageTrace) workflow.Node {
	return w.DecisionGroups()[st.Stage].Nodes[st.Branch]
}

// stageTimes recovers a stage's startup and latency under the startup
// and decision costs every suite run serves with: Suite.executorConfig
// keeps DefaultExecutorConfig's.
func stageTimes(st *platform.StageTrace) (startup, latency time.Duration) {
	return platform.DefaultExecutorConfig().StageTimes(st)
}

// tenantWorkflows maps each tenant a scenario serves to its workflow, so
// a tenant's stages can be named through stageNode.
func tenantWorkflows(t testing.TB, tenants func() ([]MixTenant, error)) map[string]*workflow.Workflow {
	t.Helper()
	list, err := tenants()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*workflow.Workflow, len(list))
	for _, mt := range list {
		byName[mt.Tenant] = mt.Workflow
	}
	return byName
}

// traceDigest renders a trace of workflow w served by system sys —
// including every executed branch — into a stable text form. Only fields
// that predate the node-granular engine are printed, so the digest is
// comparable across the stage-indexed and node-granular implementations;
// the system name, which traces no longer carry, comes from the run. dyn
// adds the node identity only the dynamic scheduler produces: step name,
// map replica and retry attempt.
func traceDigest(w *workflow.Workflow, sys string, tr *platform.Trace, dyn bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d sys=%s arr=%d done=%d e2e=%d slo=%d mc=%d dec=%d miss=%d park=%d\n",
		tr.RequestID, sys, tr.Arrival, tr.Done, tr.E2E, tr.SLO,
		tr.TotalMillicores, tr.Decisions, tr.Misses, tr.Parked)
	for i := range tr.Stages {
		st := &tr.Stages[i]
		node := stageNode(w, st)
		startup, latency := stageTimes(st)
		fmt.Fprintf(&b, "  fn=%s stage=%d branch=%d node=%d mc=%d start=%d end=%d startup=%d lat=%d cold=%v hit=%v",
			node.Function, st.Stage, st.Branch, st.Node, st.Millicores,
			st.Start, st.End, startup, latency, st.Cold, st.Hit)
		if dyn {
			fmt.Fprintf(&b, " step=%s replica=%d attempt=%d", node.Name, st.Replica, st.Attempt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func runHash(w *workflow.Workflow, sys string, traces []platform.Trace, dyn bool) string {
	h := sha256.New()
	for i := range traces {
		fmt.Fprint(h, traceDigest(w, sys, &traces[i], dyn))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update. what names the locked behavior in the failure message.
func checkGolden(t *testing.T, name, what, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				wantLine := "<eof>"
				if i < len(wantLines) {
					wantLine = wantLines[i]
				}
				t.Fatalf("%s behavior drifted from the golden at line %d:\n got: %s\nwant: %s", what, i+1, gotLines[i], wantLine)
			}
		}
		t.Fatalf("%s behavior drifted from the golden (got %d bytes, want %d)", what, len(got), len(want))
	}
}

// TestChainSPGolden locks the serving and synthesis pipeline byte for byte
// against golden files captured before the node-granular DAG refactor: the
// chain workloads (IA, VA) under every system, the series-parallel Video
// Analyze scenario, the multi-tenant mix, and the Janus bundles behind
// them. Any drift in draws, decisions, event ordering, or synthesized
// tables changes a hash. Regenerate with `go test ./internal/experiment
// -run Golden -update` — but only when a behavior change is intended.
func TestChainSPGolden(t *testing.T) {
	s := quickSuite(t)
	var b strings.Builder

	type grid struct {
		w       *workflow.Workflow
		systems []string
	}
	grids := []grid{
		{workflow.IntelligentAssistant(), AllSystems()},
		{workflow.VideoAnalyze(), AllSystems()},
		{SPWorkflow(), SPSystems()},
	}
	for _, g := range grids {
		runs, err := s.RunPoint(g.w, 1, g.systems)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range g.systems {
			r := runs[sys]
			fmt.Fprintf(&b, "run %s/%v/b1 %s p50=%d p99=%d viol=%.4f mc=%.1f miss=%.4f sha=%s\n",
				g.w.Name(), g.w.SLO(), sys, r.P50E2E.Milliseconds(), r.P99E2E.Milliseconds(),
				r.ViolationRate, r.MeanMillicores, r.MissRate, runHash(g.w, sys, r.Traces, false))
		}
	}

	// Synthesized Janus bundles: condensed tables per sub-workflow.
	for _, g := range grids {
		d, err := s.Deployment(g.w, 1, synth.ModeJanus, 1)
		if err != nil {
			t.Fatal(err)
		}
		bundle := d.Bundle()
		fmt.Fprintf(&b, "bundle %s slo=%dms tables=%d ranges=%d\n",
			bundle.Workflow, bundle.SLOMs, bundle.Stages(), bundle.TotalRanges())
		for _, tab := range bundle.Tables {
			fmt.Fprintf(&b, "  table suffix=%d size=%d", tab.Suffix, tab.Size())
			for _, r := range tab.Ranges {
				fmt.Fprintf(&b, " [%d,%d]=%d@p%d", r.StartMs, r.EndMs, r.Millicores, r.Percentile)
			}
			fmt.Fprintln(&b)
		}
	}

	// Formatted scenario output (what janusbench prints).
	spRows, err := s.SPScenario()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatSPScenario(spRows))
	sweep, err := s.SPArrivalSweep()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatSPArrivalSweep(sweep))
	mix, err := s.MixScenario()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatMixScenario(mix))

	checkGolden(t, "golden_chain_sp.txt", "chain/SP", b.String())
}

// TestTriggerGolden locks the dynamic scheduler the same way: the
// quick-scale trigger scenario — choice pruning, map fan-out up to width
// 6, bounded retries, awaited gates, start triggers, and capacity parking
// on the replay engine — under both shape-aware and shape-blind
// planning. Each run's hash covers every executed replica and attempt;
// the formatted table is what janusbench prints.
func TestTriggerGolden(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.TriggerScenario()
	if err != nil {
		t.Fatal(err)
	}
	w, err := TriggerWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, run := range runs {
		fmt.Fprintf(&b, "run %s traces=%d pod-s=%.3f peak=%d sha=%s\n",
			run.Config, len(run.Traces), run.Metrics.PodSeconds, run.Metrics.PeakPods, runHash(w, run.Config, run.Traces, true))
	}
	b.WriteString(FormatTrigger(runs))
	checkGolden(t, "golden_trigger.txt", "trigger", b.String())
}

// TestScheduleGolden locks the schedule-driven grids the same way: the
// quick-scale replay scenario, and the fleet grid unsharded and sharded
// on the tiny fleet suite. Each (config, tenant) trace set gets its own
// hash; the formatted tables carry the regeneration loop's hot-swap
// instants and floors.
func TestScheduleGolden(t *testing.T) {
	var b strings.Builder
	workflows := tenantWorkflows(t, ReplayTenants)
	dump := func(runs []*ReplayRun) {
		for _, run := range runs {
			for _, row := range run.Rows {
				fmt.Fprintf(&b, "run %s/%s %s traces=%d sha=%s\n",
					run.Scenario, run.Config, row.Tenant, len(run.Traces[row.Tenant]), runHash(workflows[row.Tenant], SysJanus, run.Traces[row.Tenant], false))
			}
		}
	}

	replayRuns, err := quickSuite(t).ReplayScenario()
	if err != nil {
		t.Fatal(err)
	}
	dump(replayRuns)
	b.WriteString(FormatReplay(replayRuns))

	fleet := tinyFleetSuite()
	fleetRuns, err := fleet.FleetScenario()
	if err != nil {
		t.Fatal(err)
	}
	dump(fleetRuns)
	b.WriteString(FormatReplay(fleetRuns))
	shardRuns, err := fleet.FleetShardScenario()
	if err != nil {
		t.Fatal(err)
	}
	dump(shardRuns)
	b.WriteString(FormatFleetShard(shardRuns))

	checkGolden(t, "golden_schedule.txt", "replay/fleet", b.String())
}

// TestDAGMixGolden locks the formatted rows no other golden covers: the
// arbitrary-DAG scenario (decisions per request, cold starts, parks), the
// tenant-mix placement comparison and the node-count scale-out sweep,
// all on the quick suite. Each run's hash pins the traces the rows are
// reduced from, so a row that drifts without its traces drifting points
// at the reduction, not the engine.
func TestDAGMixGolden(t *testing.T) {
	s := quickSuite(t)
	var b strings.Builder

	dag, err := DAGWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.RunPoint(dag, 1, DAGSystems())
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range DAGSystems() {
		fmt.Fprintf(&b, "run %s %s sha=%s\n", dag.Name(), sys, runHash(dag, sys, runs[sys].Traces, false))
	}
	rows, err := s.DAGScenario()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatDAGScenario(rows))

	workflows := tenantWorkflows(t, MixTenants)
	dumpMix := func(runs []*MixRun) {
		for _, run := range runs {
			for _, row := range run.Tenants {
				fmt.Fprintf(&b, "run mix/%s/n%d/%s %s sha=%s\n",
					run.System, run.Nodes, run.Placement, row.Tenant, runHash(workflows[row.Tenant], run.System, run.Traces[row.Tenant], false))
			}
		}
	}
	placement, err := s.MixPlacement()
	if err != nil {
		t.Fatal(err)
	}
	dumpMix(placement)
	b.WriteString(FormatMixPlacement(placement))
	scaleOut, err := s.MixScaleOut()
	if err != nil {
		t.Fatal(err)
	}
	dumpMix(scaleOut)
	b.WriteString(FormatMixScaleOut(scaleOut))

	checkGolden(t, "golden_dag_mix.txt", "DAG/mix", b.String())
}
