package platform

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

// TestEarlyAwaitTriggersLatch pins the latch of an await trigger that
// fires before its request holds any state: a gate trigger one
// millisecond before the request's arrival, at the arrival instant
// (triggers fire before same-instant admissions), or one millisecond
// after admission, before any node could finish, serves identically —
// the gate runs at its readiness instant in every case.
func TestEarlyAwaitTriggersLatch(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 120)
	run := func(offset time.Duration) []Trace {
		t.Helper()
		triggers := make([]Trigger, len(reqs))
		for i, r := range reqs {
			triggers[i] = Trigger{At: max(r.Arrival+offset, 0), Request: r.ID, Step: "gate"}
		}
		traces, _, err := defaultExecutor(t).RunReplay(
			[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
			ReplayConfig{Interval: 100 * time.Millisecond, Triggers: triggers})
		if err != nil {
			t.Fatal(err)
		}
		return traces[""]
	}
	want := run(-time.Millisecond)
	afterAdmission := run(time.Millisecond)
	for _, tr := range afterAdmission {
		for _, st := range tr.Stages {
			if st.End <= tr.Arrival+time.Millisecond {
				t.Fatalf("request %d finished a node at %v, by its gate trigger at %v", tr.RequestID, st.End, tr.Arrival+time.Millisecond)
			}
		}
	}
	if !reflect.DeepEqual(run(0), want) {
		t.Fatal("gate triggers at the arrival instant served differently from triggers before it")
	}
	if !reflect.DeepEqual(afterAdmission, want) {
		t.Fatal("gate triggers after admission served differently from triggers before it")
	}
	// The gates must wait for late triggers, or the latch proves nothing.
	if reflect.DeepEqual(run(2*time.Second), want) {
		t.Fatal("late gate triggers served like early ones; the case does not exercise the latch")
	}
}

// prunedAwaitWorkflow builds a dynamic workflow whose choice can prune
// its await step:
//
//	ingest -> route(choice) -> {prep -> hold(await) -> finish | quick}
//
// A request routed to quick finishes without its await; its trigger has
// nothing left to resume.
func prunedAwaitWorkflow(t testing.TB) *workflow.Workflow {
	t.Helper()
	w, err := workflow.NewDynamic("pruned-await", 1500*time.Millisecond,
		[]workflow.Node{
			{Name: "ingest", Function: "fe"},
			{Name: "route", Function: "ico"},
			{Name: "prep", Function: "redis-read"},
			{Name: "quick", Function: "socket-comm"},
			{Name: "hold", Function: "redis-read"},
			{Name: "finish", Function: "aes-encrypt"},
		},
		[][2]string{
			{"ingest", "route"},
			{"route", "prep"},
			{"route", "quick"},
			{"prep", "hold"},
			{"hold", "finish"},
		},
		[]workflow.DynamicNode{
			{Step: "route", Choice: &workflow.ChoiceSpec{Weights: []float64{0.5, 0.5}}},
			{Step: "hold", Await: true},
		})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTriggerAfterFinishLeavesRecycledStateAlone pins that a trigger
// firing after its request finished touches no state: the finished
// request's pooled state is by then serving a later request, which may
// be waiting at its own await. Every request that reaches its await
// waits a second for its trigger; requests routed past their await get
// their trigger five seconds after arrival, long after they finished,
// while requests waiting on a trigger hold the recycled states. The run
// must serve exactly like one whose triggers for the routed-past
// requests fire at their arrival.
func TestTriggerAfterFinishLeavesRecycledStateAlone(t *testing.T) {
	const hold, late = time.Second, 5 * time.Second
	w := prunedAwaitWorkflow(t)
	reqs := trigWorkload(t, w, 200)
	sizes := []int{2000, 2000, 2000, 2000, 2000}
	run := func(prunedAt func(r *Request) time.Duration) []Trace {
		t.Helper()
		triggers := make([]Trigger, len(reqs))
		for i, r := range reqs {
			at := r.Arrival + hold
			if r.Dyn.Choice("route") == 1 {
				at = prunedAt(r)
			}
			triggers[i] = Trigger{At: at, Request: r.ID, Step: "hold"}
		}
		traces, _, err := defaultExecutor(t).RunReplay(
			[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: sizes}}},
			ReplayConfig{Interval: 100 * time.Millisecond, Triggers: triggers})
		if err != nil {
			t.Fatal(err)
		}
		return traces[""]
	}
	afterFinish := run(func(r *Request) time.Duration { return r.Arrival + late })
	groups := w.DecisionGroups()
	pruned, waited := 0, 0
	for _, tr := range afterFinish {
		r := reqs[tr.RequestID]
		if r.Dyn.Choice("route") == 1 {
			pruned++
			if tr.Done >= r.Arrival+late {
				t.Fatalf("pruned request %d finished at %v, not before its trigger at %v", r.ID, tr.Done, r.Arrival+late)
			}
			continue
		}
		for _, st := range tr.Stages {
			if groups[st.Stage].Nodes[st.Branch].Name == "hold" {
				waited++
				if st.Start < r.Arrival+hold {
					t.Fatalf("request %d ran its await at %v, before its trigger at %v", r.ID, st.Start, r.Arrival+hold)
				}
			}
		}
	}
	if pruned == 0 || waited == 0 {
		t.Fatalf("%d pruned and %d awaiting requests; the case needs both", pruned, waited)
	}
	early := run(func(r *Request) time.Duration { return r.Arrival })
	if !reflect.DeepEqual(afterFinish, early) {
		t.Fatal("triggers fired after their requests finished changed the run")
	}
}

// TestPoolHoldsPeakInFlight pins the pool's size on two streams: a long,
// low-rate stream of a dynamic and a static tenant, and a static burst
// past the cluster's capacity, whose backlog outgrows the first slab.
// The run's pool carves one state per request in flight at the run's
// peak, never one per request, and its doubling slabs hold at most
// max(slabMin, twice the peak). The peak is read off the traces,
// counting a request admitted at the instant another finishes as
// overlapping it, which can only overstate it.
func TestPoolHoldsPeakInFlight(t *testing.T) {
	dyn := trigWorkload(t, trigWorkflow(t), 400)
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := GenerateWorkload(WorkloadConfig{
		Workflow: workflow.IntelligentAssistant(), Functions: perfmodel.Catalog(), N: 1500,
		ArrivalRatePerSec: 20, Colocation: coloc, Interference: interfere.Default(), Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	iaSizes := []int{2000, 2000, 2000}
	for _, c := range []struct {
		name     string
		tenants  []TenantWorkload
		triggers []Trigger
		lowRate  bool
	}{
		{"low rate", []TenantWorkload{
			{Tenant: "dyn", Requests: dyn, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}},
			{Tenant: "stat", Requests: iaWorkload(t, 2000), Allocator: &Fixed{System: "fixed", Sizes: iaSizes}},
		}, timedTriggers(dyn, "dyn", 120*time.Millisecond, 0), true},
		{"burst", []TenantWorkload{{Requests: burst, Allocator: &Fixed{System: "fixed", Sizes: iaSizes}}}, nil, false},
	} {
		st, err := defaultExecutor(t).prepareRun(c.tenants, c.triggers)
		if err != nil {
			t.Fatal(err)
		}
		st.engine.Run()
		out, err := st.collect()
		if err != nil {
			t.Fatal(err)
		}
		type edge struct {
			at    time.Duration
			delta int
		}
		var edges []edge
		for _, traces := range out {
			for _, tr := range traces {
				edges = append(edges, edge{tr.Arrival, 1}, edge{tr.Done, -1})
			}
		}
		slices.SortFunc(edges, func(a, b edge) int {
			// Admissions first at a tie: closed intervals.
			return cmp.Or(cmp.Compare(a.at, b.at), b.delta-a.delta)
		})
		peak, live := 0, 0
		for _, e := range edges {
			live += e.delta
			peak = max(peak, live)
		}
		made, held := st.pool.made, st.pool.made+len(st.pool.states)
		if made < 1 || made > peak || (c.lowRate && made*10 > st.total) {
			t.Fatalf("%s: pool carved %d states for %d requests, peak in flight %d", c.name, made, st.total, peak)
		}
		if held > max(slabMin, 2*peak) {
			t.Fatalf("%s: pool's slabs hold %d states, peak in flight %d", c.name, held, peak)
		}
		if !c.lowRate && made <= slabMin {
			t.Fatalf("%s: peak of %d states fits the first slab; the case does not grow the pool", c.name, made)
		}
	}
}
