package platform

import (
	"fmt"
	"testing"
	"time"

	"janus/internal/obs"
	"janus/internal/perfmodel"
)

// These tests pin the order in which the engine admits requests and
// fires triggers, read back from the KindAdmit and KindTrigger events of
// an attached collector: triggers win a same-instant tie against an
// arrival (armTriggers schedules them before every admission), and
// arrivals fire by (arrival, tenant, input position) whatever order a
// tenant's requests come in.

// admission is one admission-order event: "admit t/r" or
// "trigger(reason) t/r", at its instant.
type admission struct {
	at    time.Duration
	event string
}

func tracedExecutor(t *testing.T) (*Executor, *obs.Collector) {
	t.Helper()
	col := &obs.Collector{}
	cfg := DefaultExecutorConfig()
	cfg.Tracer = col
	e, err := NewExecutor(cfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return e, col
}

// admissionsOf extracts the admission-order events in emission order.
func admissionsOf(col *obs.Collector) []admission {
	var out []admission
	for _, ev := range col.Events() {
		switch ev.Kind {
		case obs.KindAdmit:
			out = append(out, admission{ev.At, fmt.Sprintf("admit %s/%d", ev.Tenant, ev.Request)})
		case obs.KindTrigger:
			out = append(out, admission{ev.At, fmt.Sprintf("trigger(%s) %s/%d", ev.Reason, ev.Tenant, ev.Request)})
		}
	}
	return out
}

// atInstant keeps the events at one instant, in order.
func atInstant(evs []admission, at time.Duration) []string {
	var out []string
	for _, a := range evs {
		if a.at == at {
			out = append(out, a.event)
		}
	}
	return out
}

func wantEvents(t *testing.T, what string, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: got %q, want %q", what, got, want)
	}
}

// TestStartTriggerWinsArrivalTie starts request 2 by a trigger at the
// instant request 1 arrives: the trigger fires, and admits request 2,
// before request 1's own arrival admits it.
func TestStartTriggerWinsArrivalTie(t *testing.T) {
	gap := 100 * time.Millisecond
	reqs := iaReplayWorkload(t, everyN(3, gap))
	e, col := tracedExecutor(t)
	_, _, err := e.RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}}}},
		ReplayConfig{Interval: gap, Triggers: []Trigger{{At: gap, Request: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	evs := admissionsOf(col)
	wantEvents(t, "admissions at 0", atInstant(evs, 0), []string{"admit /0"})
	wantEvents(t, "admissions at the tie", atInstant(evs, gap), []string{"trigger(start) /2", "admit /2", "admit /1"})
	if len(evs) != 4 {
		t.Fatalf("%d admission events, want 4: %v", len(evs), evs)
	}
}

// TestResumeTriggerWinsArrivalTie fires request 0's gate trigger at the
// instant request 1 arrives: the resume trigger fires first.
func TestResumeTriggerWinsArrivalTie(t *testing.T) {
	w := trigWorkflow(t)
	reqs := trigWorkload(t, w, 6)
	triggers := gateTriggers(reqs, "", 90*time.Millisecond)
	tie := reqs[1].Arrival
	triggers[0].At = tie
	e, col := tracedExecutor(t)
	_, _, err := e.RunReplay(
		[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
		ReplayConfig{Interval: 100 * time.Millisecond, Triggers: triggers})
	if err != nil {
		t.Fatal(err)
	}
	wantEvents(t, "admissions at the tie", atInstant(admissionsOf(col), tie), []string{"trigger(gate) /0", "admit /1"})
}

// TestOutOfOrderTenantAdmittedByArrival serves a tenant whose requests
// come in neither arrival nor ID order, with ties at every instant,
// beside an ascending tenant: admission follows (arrival, tenant, input
// position). A second run scrambles 300 requests over five instants,
// enough for an unstable sort to reorder ties.
func TestOutOfOrderTenantAdmittedByArrival(t *testing.T) {
	ms := time.Millisecond
	gen := iaReplayWorkload(t, everyN(6, 50*ms))
	// Input position p carries request ID 5-p at arrival at[p].
	at := []time.Duration{200 * ms, 0, 100 * ms, 0, 200 * ms, 100 * ms}
	shuffled := make([]*Request, len(gen))
	for p := range shuffled {
		shuffled[p] = gen[len(gen)-1-p]
		shuffled[p].Arrival = at[p]
	}
	other := iaReplayWorkload(t, everyN(2, 100*ms))
	e, col := tracedExecutor(t)
	fixed := &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}}
	_, err := e.RunMixed([]TenantWorkload{
		{Tenant: "a", Requests: shuffled, Allocator: fixed},
		{Tenant: "b", Requests: other, Allocator: fixed},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range admissionsOf(col) {
		got = append(got, fmt.Sprintf("%v %s", a.at, a.event))
	}
	wantEvents(t, "admission order", got, []string{
		"0s admit a/4", "0s admit a/2", "0s admit b/0",
		"100ms admit a/3", "100ms admit a/0", "100ms admit b/1",
		"200ms admit a/5", "200ms admit a/1",
	})

	big := iaReplayWorkload(t, everyN(300, time.Millisecond))
	var want []string
	for slot := 0; slot < 5; slot++ {
		for p, r := range big {
			if p*7%5 == slot {
				r.Arrival = time.Duration(slot) * time.Second
				want = append(want, fmt.Sprintf("%v admit c/%d", r.Arrival, r.ID))
			}
		}
	}
	e, col = tracedExecutor(t)
	if _, err := e.RunMixed([]TenantWorkload{{Tenant: "c", Requests: big, Allocator: fixed}}); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for _, a := range admissionsOf(col) {
		got = append(got, fmt.Sprintf("%v %s", a.at, a.event))
	}
	wantEvents(t, "scrambled admission order", got, want)
}
