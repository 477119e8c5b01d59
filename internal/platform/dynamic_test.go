package platform

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

// trigWorkflow builds the dynamic test workflow:
//
//	ingest -> triage(choice) -> {caption | detect -> ocr(map 1..4,
//	retry<=2)} -> gate(await) -> publish
//
// Decision groups: {ingest} {triage} {caption, detect} {ocr} {gate}
// {publish} — six groups, with caption and detect sharing one group
// whose members have split liveness after the choice resolves.
func trigWorkflow(t testing.TB) *workflow.Workflow {
	t.Helper()
	w, err := workflow.NewDynamic("trig", 1500*time.Millisecond,
		[]workflow.Node{
			{Name: "ingest", Function: "fe"},
			{Name: "triage", Function: "ico"},
			{Name: "caption", Function: "redis-read"},
			{Name: "detect", Function: "icl"},
			{Name: "ocr", Function: "aes-encrypt"},
			{Name: "gate", Function: "redis-read"},
			{Name: "publish", Function: "socket-comm"},
		},
		[][2]string{
			{"ingest", "triage"},
			{"triage", "caption"},
			{"triage", "detect"},
			{"detect", "ocr"},
			{"caption", "gate"},
			{"ocr", "gate"},
			{"gate", "publish"},
		},
		[]workflow.DynamicNode{
			{Step: "triage", Choice: &workflow.ChoiceSpec{Weights: []float64{0.55, 0.45}}},
			{Step: "ocr", Map: &workflow.MapSpec{MaxWidth: 4}, Retry: &workflow.RetrySpec{MaxRetries: 2, FailureProb: 0.3}},
			{Step: "gate", Await: true},
		})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func trigWorkload(t testing.TB, w *workflow.Workflow, n int) []*Request {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := GenerateWorkload(WorkloadConfig{
		Workflow:          w,
		Functions:         perfmodel.Catalog(),
		N:                 n,
		Batch:             1,
		ArrivalRatePerSec: 5,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		StageCorrelation:  0.5,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// gateTriggers builds one resume trigger per request for the gate step.
func gateTriggers(reqs []*Request, tenant string, delay time.Duration) []Trigger {
	out := make([]Trigger, len(reqs))
	for i, r := range reqs {
		out[i] = Trigger{At: r.Arrival + delay, Tenant: tenant, Request: r.ID, Step: "gate"}
	}
	return out
}

var trigSizes = []int{2000, 2000, 2000, 2000, 2000, 2000}

func TestDynamicWorkloadResolutions(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 200)
	sawLight, sawHeavy, sawWide, sawRetry := false, false, false, false
	for _, r := range reqs {
		if r.Dyn == nil {
			t.Fatal("dynamic workflow generated without resolutions")
		}
		choice := r.Dyn.Choice("triage")
		if choice < 0 || choice > 1 {
			t.Fatalf("request %d triage choice %d", r.ID, choice)
		}
		if choice == 0 {
			sawLight = true
		} else {
			sawHeavy = true
		}
		width := r.Dyn.Width("ocr")
		if width < 1 || width > 4 {
			t.Fatalf("request %d ocr width %d outside [1, 4]", r.ID, width)
		}
		if width > 1 {
			sawWide = true
		}
		attempts := r.Dyn.Attempts("ocr")
		if len(attempts) != width {
			t.Fatalf("request %d has %d attempt counts for width %d", r.ID, len(attempts), width)
		}
		for rep, a := range attempts {
			if a < 0 || a > 2 {
				t.Fatalf("request %d replica %d plans %d failures", r.ID, rep, a)
			}
			if a > 0 {
				sawRetry = true
			}
			if len(r.Dyn.NodeDraws("ocr", rep)) != a+1 {
				t.Fatalf("request %d replica %d draw count mismatch", r.ID, rep)
			}
		}
	}
	if !sawLight || !sawHeavy || !sawWide || !sawRetry {
		t.Fatalf("resolutions not diverse: light=%v heavy=%v wide=%v retry=%v", sawLight, sawHeavy, sawWide, sawRetry)
	}
}

// TestDynamicServingShapes checks every request's executed shape against
// its pre-sampled resolution, on the default cluster and on one small
// enough that nodes park and wake mid-request: a completion whose wake
// launches parked work must still finish its own replica.
func TestDynamicServingShapes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		millicore int
	}{{"default", 0}, {"contended", 9000}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultExecutorConfig()
			if tc.millicore > 0 {
				cfg.Cluster.NodeMillicores = tc.millicore
			}
			e, err := NewExecutor(cfg, perfmodel.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			checkDynamicShapes(t, e, tc.millicore > 0)
		})
	}
}

func checkDynamicShapes(t *testing.T, e *Executor, wantParks bool) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 120)
	traces, _, err := e.RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", 120*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	groups := w.DecisionGroups()
	step := func(st StageTrace) string { return groups[st.Stage].Nodes[st.Branch].Name }
	parks := 0
	for _, tr := range traces[""] {
		parks += tr.Parked
		r := reqs[tr.RequestID]
		byStep := map[string]int{}
		for _, st := range tr.Stages {
			byStep[step(st)]++
		}
		heavy := r.Dyn.Choice("triage") == 1
		if heavy {
			if byStep["caption"] != 0 || byStep["detect"] != 1 {
				t.Fatalf("request %d heavy path executed caption=%d detect=%d", tr.RequestID, byStep["caption"], byStep["detect"])
			}
			wantOCR := 0
			for _, a := range r.Dyn.Attempts("ocr") {
				wantOCR += a + 1
			}
			if byStep["ocr"] != wantOCR {
				t.Fatalf("request %d executed %d ocr attempts, resolution implies %d", tr.RequestID, byStep["ocr"], wantOCR)
			}
		} else {
			if byStep["caption"] != 1 || byStep["detect"] != 0 || byStep["ocr"] != 0 {
				t.Fatalf("request %d light path executed caption=%d detect=%d ocr=%d",
					tr.RequestID, byStep["caption"], byStep["detect"], byStep["ocr"])
			}
		}
		if byStep["ingest"] != 1 || byStep["triage"] != 1 || byStep["gate"] != 1 || byStep["publish"] != 1 {
			t.Fatalf("request %d static spine counts %v", tr.RequestID, byStep)
		}
		// The gate never starts before its trigger fires.
		for _, st := range tr.Stages {
			if step(st) == "gate" && st.Start < r.Arrival+120*time.Millisecond {
				t.Fatalf("request %d gate started %v, trigger at %v", tr.RequestID, st.Start, r.Arrival+120*time.Millisecond)
			}
		}
		// One decision per live group plus one per retry re-attempt.
		liveGroups := 4 // ingest, triage, {caption|detect}, gate... plus below
		retries := 0
		if heavy {
			liveGroups = 6
			for _, a := range r.Dyn.Attempts("ocr") {
				retries += a
			}
		} else {
			liveGroups = 5 // ocr group fully pruned
		}
		if tr.Decisions != liveGroups+retries {
			t.Fatalf("request %d made %d decisions, want %d live groups + %d retries", tr.RequestID, tr.Decisions, liveGroups, retries)
		}
	}
	if wantParks && parks == 0 {
		t.Fatal("contended cluster parked nothing; the case does not exercise park/wake")
	}
}

func TestDynamicServingDeterministic(t *testing.T) {
	w := trigWorkflow(t)
	run := func() map[string][]Trace {
		reqs := trigWorkload(t, w, 80)
		traces, _, err := defaultExecutor(t).RunReplay(
			[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
			ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", 90*time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical dynamic replays produced different traces")
	}
}

// shapeRecorder is a ShapeAwareAllocator that records the shape keys it
// is handed.
type shapeRecorder struct {
	Fixed
	shapes map[int]map[string]bool
}

func (s *shapeRecorder) AllocateShaped(req *Request, group int, shape string, remaining time.Duration) (int, bool) {
	if s.shapes[group] == nil {
		s.shapes[group] = map[string]bool{}
	}
	s.shapes[group][shape] = true
	return s.Allocate(req, group, remaining)
}

func TestDynamicShapeKeysReachAllocator(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 120)
	rec := &shapeRecorder{Fixed: Fixed{System: "rec", Sizes: trigSizes}, shapes: map[int]map[string]bool{}}
	if _, _, err := defaultExecutor(t).RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: rec}},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", 90*time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	// The ocr group (index 3) is the only one with a map member: every
	// decision there carries a "w=N" key matching a generated width; no
	// other group ever sees a non-empty shape.
	for g, shapes := range rec.shapes {
		for shape := range shapes {
			if g == 3 {
				if !strings.HasPrefix(shape, "w=") {
					t.Fatalf("ocr group saw shape %q", shape)
				}
			} else if shape != "" {
				t.Fatalf("group %d saw unexpected shape %q", g, shape)
			}
		}
	}
	widths := map[string]bool{}
	for _, r := range reqs {
		if r.Dyn.Choice("triage") == 1 {
			widths[fmt.Sprintf("w=%d", r.Dyn.Width("ocr"))] = true
		}
	}
	if !reflect.DeepEqual(rec.shapes[3], widths) {
		t.Fatalf("ocr shapes %v, workload widths %v", rec.shapes[3], widths)
	}
}

func TestAwaitRequiresTriggers(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 5)
	_, err := defaultExecutor(t).RunMixed(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}})
	if err == nil || !strings.Contains(err.Error(), "no trigger") {
		t.Fatalf("await workflow without triggers not rejected: %v", err)
	}
	// Covering only some requests is rejected too.
	_, _, err = defaultExecutor(t).RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", time.Millisecond)[:4]})
	if err == nil || !strings.Contains(err.Error(), "no trigger") {
		t.Fatalf("partial trigger coverage not rejected: %v", err)
	}
}

func TestStartTriggerAdmission(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 20)
	triggers := gateTriggers(reqs, "", 90*time.Millisecond)
	// Request 0 is started by a stream event well after its generated
	// arrival; its SLO clock must start at the fire instant.
	startAt := reqs[len(reqs)-1].Arrival + 500*time.Millisecond
	triggers = append(triggers, Trigger{At: startAt, Request: 0})
	// Its gate trigger must still be in the future relative to the new
	// start; move it past the start instant.
	triggers[0].At = startAt + 90*time.Millisecond
	traces, _, err := defaultExecutor(t).RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: triggers})
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[""][0]
	if tr.Arrival != startAt {
		t.Fatalf("start-triggered request admitted at %v, trigger fired at %v", tr.Arrival, startAt)
	}
	if tr.Done < startAt || tr.E2E != tr.Done-startAt {
		t.Fatalf("start-triggered request E2E %v not measured from the fire instant (done %v)", tr.E2E, tr.Done)
	}
	if len(tr.Stages) == 0 || tr.Stages[0].Start < startAt {
		t.Fatalf("start-triggered request ran before its trigger: %+v", tr.Stages[0])
	}
}

func TestTriggerValidation(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 3)
	base := gateTriggers(reqs, "", time.Millisecond)
	cases := []struct {
		name string
		add  Trigger
		want string
	}{
		{"unknown tenant", Trigger{Tenant: "ghost", Request: 0, Step: "gate"}, "unknown tenant"},
		{"unknown request", Trigger{Request: 99, Step: "gate"}, "unknown request"},
		{"negative request", Trigger{Request: -1, Step: "gate"}, "unknown request"},
		{"non-await step", Trigger{Request: 0, Step: "detect"}, "not an await step"},
		{"negative instant", Trigger{At: -time.Second, Request: 0, Step: "gate"}, "negative instant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := defaultExecutor(t).RunReplay(
				[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
				ReplayConfig{Interval: 100 * time.Millisecond, Triggers: append(append([]Trigger(nil), base...), tc.add)})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	// Duplicate start trigger.
	dup := append(append([]Trigger(nil), base...),
		Trigger{At: time.Second, Request: 1}, Trigger{At: 2 * time.Second, Request: 1})
	_, _, err := defaultExecutor(t).RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: dup})
	if err == nil || !strings.Contains(err.Error(), "more than one start trigger") {
		t.Fatalf("duplicate start trigger not rejected: %v", err)
	}
}

// TestDynamicAlongsideStaticTenant pins that a dynamic tenant and a
// static tenant share one replay cluster without perturbing the static
// tenant's semantics (its traces still complete and carry static-shape
// stage counts).
func TestDynamicAlongsideStaticTenant(t *testing.T) {
	w := trigWorkflow(t)
	dynReqs := trigWorkload(t, w, 40)
	statReqs := iaWorkload(t, 40)
	traces, _, err := defaultExecutor(t).RunReplay(
		[]TenantWorkload{
			{Tenant: "dyn", Requests: dynReqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}},
			{Tenant: "stat", Requests: statReqs, Allocator: &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}}},
		},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(dynReqs, "dyn", 90*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces["dyn"]) != 40 || len(traces["stat"]) != 40 {
		t.Fatalf("trace counts dyn=%d stat=%d", len(traces["dyn"]), len(traces["stat"]))
	}
	for _, tr := range traces["stat"] {
		if len(tr.Stages) != 3 {
			t.Fatalf("static tenant request %d executed %d stages", tr.RequestID, len(tr.Stages))
		}
	}
}

// timedTriggers is the trigger scenario's queue shape on the test
// workflow, addressed to tenant: every 8th request is started by a
// trigger 250 ms after its drawn arrival, and every gate is resumed
// gateDelay after the request's effective admission. round, when
// positive, truncates every instant to that grid, so triggers of
// different requests share instants.
func timedTriggers(reqs []*Request, tenant string, gateDelay, round time.Duration) []Trigger {
	at := func(d time.Duration) time.Duration {
		if round > 0 {
			return d.Truncate(round)
		}
		return d
	}
	out := make([]Trigger, 0, len(reqs)+len(reqs)/8)
	for i, r := range reqs {
		start := r.Arrival
		if i%8 == 7 {
			start += 250 * time.Millisecond
			out = append(out, Trigger{At: at(start), Tenant: tenant, Request: r.ID})
		}
		out = append(out, Trigger{At: at(start + gateDelay), Tenant: tenant, Request: r.ID, Step: "gate"})
	}
	return out
}

// TestTriggerQueueOrderIrrelevant pins the armed lane's firing order:
// triggers fire by instant, same-instant triggers in queue order, so
// permuting the queue among distinct instants — same-instant triggers
// kept in their relative order — serves identically. The gates resume on
// a coarse grid long after readiness, on a cluster small enough to park,
// so same-instant triggers launch competing work and their order shows
// in the traces.
func TestTriggerQueueOrderIrrelevant(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 160)
	queue := timedTriggers(reqs, "", 2*time.Second, 500*time.Millisecond)
	byAt := map[time.Duration][]Trigger{}
	for _, tr := range queue {
		byAt[tr.At] = append(byAt[tr.At], tr)
	}
	// deal lays each instant's triggers, in the order given by pick, onto
	// the positions perm gives that instant.
	deal := func(perm []int, pick func(ts []Trigger, i int) Trigger) []Trigger {
		next := map[time.Duration]int{}
		out := make([]Trigger, len(queue))
		for i, p := range perm {
			at := queue[p].At
			out[i] = pick(byAt[at], next[at])
			next[at]++
		}
		return out
	}
	inOrder := func(ts []Trigger, i int) Trigger { return ts[i] }
	cfg := DefaultExecutorConfig()
	cfg.Cluster.NodeMillicores = 9000
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	run := func(triggers []Trigger) map[string][]Trace {
		traces, _, err := e.RunReplay(
			[]TenantWorkload{{Requests: reqs, Allocator: &shapedFixed{Fixed{System: "fixed", Sizes: trigSizes}}}},
			ReplayConfig{Interval: 100 * time.Millisecond, Triggers: triggers})
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}
	want := run(queue)
	identity := make([]int, len(queue))
	reversed := make([]int, len(queue))
	for i := range identity {
		identity[i], reversed[i] = i, len(queue)-1-i
	}
	// Reversing each instant's triggers breaks the tie rule; it must show,
	// or the permutations below prove nothing.
	if reflect.DeepEqual(run(deal(identity, func(ts []Trigger, i int) Trigger { return ts[len(ts)-1-i] })), want) {
		t.Fatal("reordering same-instant triggers left the traces unchanged; the case does not exercise the tie rule")
	}
	for name, perm := range map[string][]int{
		"reversed":  reversed,
		"shuffled1": rand.New(rand.NewPCG(1, 0)).Perm(len(queue)),
		"shuffled2": rand.New(rand.NewPCG(2, 0)).Perm(len(queue)),
	} {
		if !reflect.DeepEqual(run(deal(perm, inOrder)), want) {
			t.Fatalf("%s: permuting the trigger queue among distinct instants changed the traces", name)
		}
	}
}

// TestDynamicStagesSizedExactly pins the stage arena's sizing: every
// trace's Stages is carved at exactly its executed-node count — the
// resolution's live executions for a dynamic request — so serving never
// regrows one and no slot is left unused.
func TestDynamicStagesSizedExactly(t *testing.T) {
	w := trigWorkflow(t)
	dynReqs := trigWorkload(t, w, 200)
	traces, _, err := defaultExecutor(t).RunReplay(
		[]TenantWorkload{
			{Tenant: "dyn", Requests: dynReqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}},
			{Tenant: "stat", Requests: iaWorkload(t, 40), Allocator: &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}}},
		},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: timedTriggers(dynReqs, "dyn", 90*time.Millisecond, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for tenant, ts := range traces {
		for _, tr := range ts {
			if cap(tr.Stages) != len(tr.Stages) {
				t.Fatalf("tenant %q request %d: %d stages in a slice of capacity %d", tenant, tr.RequestID, len(tr.Stages), cap(tr.Stages))
			}
		}
	}
}

// TestDynamicResolutionValidation pins that a resolution which does not
// fit the served workflow fails the run with an error, never a panic,
// and that the check is structural: a request re-pointed at a copy of
// its workflow still serves.
func TestDynamicResolutionValidation(t *testing.T) {
	w := trigWorkflow(t)
	other, err := workflow.NewDynamic("other", time.Second,
		[]workflow.Node{{Name: "a", Function: "fe"}, {Name: "b", Function: "ico"}},
		[][2]string{{"a", "b"}},
		[]workflow.DynamicNode{{Step: "b", Map: &workflow.MapSpec{MaxWidth: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	// wide is trigWorkflow with ocr's width bound raised from 4 to 8.
	var spec []workflow.DynamicNode
	for _, step := range w.DynamicSteps() {
		d, _ := w.Dynamic(step)
		if d.Map != nil {
			d.Map.MaxWidth = 8
		}
		spec = append(spec, d)
	}
	wide, err := workflow.NewDynamic("trig", w.SLO(), w.TopoOrder(), trigEdges(w), spec)
	if err != nil {
		t.Fatal(err)
	}
	var tooWide *DynDraws
	for _, r := range trigWorkload(t, wide, 400) {
		if r.Dyn.Width("ocr") > 4 {
			tooWide = r.Dyn
			break
		}
	}
	if tooWide == nil {
		t.Fatal("no resolution of the wide variant exceeds width 4")
	}
	mutated := func(mut func(d *DynDraws)) *DynDraws {
		d := *trigWorkload(t, w, 3)[1].Dyn
		d.steps = slices.Clone(d.steps)
		d.attempts = slices.Clone(d.attempts)
		mut(&d)
		return &d
	}
	cases := []struct {
		name string
		dyn  *DynDraws
		want string
	}{
		{"zero value", &DynDraws{}, "step resolutions"},
		{"foreign workflow", trigWorkload(t, other, 3)[1].Dyn, "step resolutions"},
		{"wider than the bound", tooWide, "width"},
		{"choice out of range", mutated(func(d *DynDraws) { d.steps[0].choice = 2 }), "out of range"},
		{"renamed step", mutated(func(d *DynDraws) {
			sh := *d.shape
			sh.steps = slices.Clone(sh.steps)
			sh.steps[1] = "detect"
			d.shape = &sh
		}), "names step"},
		{"another batch", mutated(func(d *DynDraws) {
			sh := *d.shape
			sh.batch = 2
			d.shape = &sh
		}), "drawn at batch 2"},
		{"retries past the bound", mutated(func(d *DynDraws) { d.attempts[0] = 3 }), "retry bound"},
		{"missing draw", mutated(func(d *DynDraws) { d.draws = d.draws[:len(d.draws)-1] }), "draws"},
		{"shifted layout", mutated(func(d *DynDraws) { d.steps[1].att++ }), "layout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := trigWorkload(t, w, 3)
			reqs[1].Dyn = tc.dyn
			_, _, err := defaultExecutor(t).RunReplay(
				[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
				ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", time.Millisecond)})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
	reqs := trigWorkload(t, w, 20)
	copyW, err := w.WithSLO(2 * w.SLO())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		r.Workflow = copyW
	}
	if _, _, err := defaultExecutor(t).RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", time.Millisecond)}); err != nil {
		t.Fatalf("requests re-pointed at a copy of their workflow rejected: %v", err)
	}
}

// TestGenerateRejectsResolutionsPastTheRecord checks GenerateWorkload's
// bounds on what one request's dynStep records hold. A chain of map
// steps of width 32 with 8 retries each resolves to up to 288 draws per
// step: 227 steps (65,376 draws) fit the records' 16-bit offsets and
// 228 (65,664) do not. A choice over 32,768 successors does not fit the
// records' signed 16-bit choice.
func TestGenerateRejectsResolutionsPastTheRecord(t *testing.T) {
	coloc, err := interfere.NewCountSampler([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	generate := func(w *workflow.Workflow) error {
		_, err := GenerateWorkload(WorkloadConfig{Workflow: w, Functions: perfmodel.Catalog(), N: 1, Colocation: coloc, Seed: 1})
		return err
	}
	chain := func(steps int) *workflow.Workflow {
		nodes := make([]workflow.Node, steps)
		var edges [][2]string
		spec := make([]workflow.DynamicNode, steps)
		for i := range nodes {
			nodes[i] = workflow.Node{Name: fmt.Sprintf("s%d", i), Function: "fe"}
			if i > 0 {
				edges = append(edges, [2]string{nodes[i-1].Name, nodes[i].Name})
			}
			spec[i] = workflow.DynamicNode{Step: nodes[i].Name,
				Map:   &workflow.MapSpec{MaxWidth: workflow.MaxMapWidth},
				Retry: &workflow.RetrySpec{MaxRetries: workflow.MaxRetryBound, FailureProb: 0.5}}
		}
		w, err := workflow.NewDynamic("chain", time.Hour, nodes, edges, spec)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if err := generate(chain(227)); err != nil {
		t.Fatalf("227 steps of up to 288 draws each: %v", err)
	}
	if err, want := generate(chain(228)), "up to 65664 draws per request"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("228 steps: err = %v, want %q", err, want)
	}
	const fanout = 32768
	nodes := []workflow.Node{{Name: "route", Function: "fe"}}
	var edges [][2]string
	for i := range fanout {
		nodes = append(nodes, workflow.Node{Name: fmt.Sprintf("b%d", i), Function: "ico"})
		edges = append(edges, [2]string{"route", nodes[i+1].Name})
	}
	w, err := workflow.NewDynamic("wide", time.Hour, nodes, edges,
		[]workflow.DynamicNode{{Step: "route", Choice: &workflow.ChoiceSpec{}}})
	if err != nil {
		t.Fatal(err)
	}
	if err, want := generate(w), "choice step \"route\" has 32768 successors"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("choice over %d successors: err = %v, want %q", fanout, err, want)
	}
}

// trigEdges lists w's edges in the order its successors declare them.
func trigEdges(w *workflow.Workflow) [][2]string {
	var edges [][2]string
	for _, n := range w.TopoOrder() {
		for _, s := range w.Successors(n.Name) {
			edges = append(edges, [2]string{n.Name, s})
		}
	}
	return edges
}

// shapedFixed is a Fixed allocator on the shape-aware path: the
// serving plane computes every dynamic decision's shape key for it.
type shapedFixed struct{ Fixed }

func (s *shapedFixed) AllocateShaped(req *Request, group int, _ string, remaining time.Duration) (int, bool) {
	return s.Allocate(req, group, remaining)
}

// BenchmarkDynamicServing times the dynamic serving path end to end:
// one RunReplay of 5000 requests of the test workflow on 4 nodes, every
// 8th request admitted by a start trigger, every gate resumed by a
// trigger, every decision made by a shape-aware fixed allocator. The
// requests and triggers are built once, outside the timer; every
// iteration serves them on a fresh run.
func BenchmarkDynamicServing(b *testing.B) {
	w := trigWorkflow(b)
	reqs := trigWorkload(b, w, 5000)
	triggers := timedTriggers(reqs, "", 120*time.Millisecond, 0)
	cfg := DefaultExecutorConfig()
	cfg.Cluster.Nodes = 4
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	tenants := []TenantWorkload{{Requests: reqs, Allocator: &shapedFixed{Fixed{System: "fixed", Sizes: trigSizes}}}}
	rcfg := ReplayConfig{Interval: 100 * time.Millisecond, Triggers: triggers}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := e.RunReplay(tenants, rcfg); err != nil {
			b.Fatal(err)
		}
	}
}
