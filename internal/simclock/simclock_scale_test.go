package simclock

import (
	"sort"
	"testing"
	"time"
)

// These tests close the gaps the fleet-scale work leans on: Stop's exact
// mid-run semantics (the replay control loop stops the engine to surface
// starvation) and queue ordering under interleaved Schedule/ScheduleAt
// with heavily duplicated timestamps at a queue depth past 100k pending
// events (a fleet burst's admission backlog).

func TestStopMidRunKeepsClockAndQueue(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(time.Second, func(time.Duration) { order = append(order, 1) })
	e.Schedule(time.Second, func(time.Duration) {
		order = append(order, 2)
		e.Stop()
	})
	e.Schedule(time.Second, func(time.Duration) { order = append(order, 3) })
	e.Schedule(2*time.Second, func(time.Duration) { order = append(order, 4) })
	e.Run()
	// Stop returns after the in-flight event: the same-instant successor
	// must NOT run, the clock must hold at the stopping instant, and the
	// queue must retain exactly the unexecuted events.
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("ran %v, want [1 2] before Stop takes effect", order)
	}
	if e.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s (the stopping event's instant)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	// A fresh Run clears the stop flag and drains the remainder in order.
	e.Run()
	if len(order) != 4 || order[2] != 3 || order[3] != 4 {
		t.Fatalf("resumed run gave %v, want [1 2 3 4]", order)
	}
}

func TestStopBeforeRunDoesNotPreempt(t *testing.T) {
	// Stop only halts an in-flight Run: a Run started after Stop
	// clears the flag and executes normally.
	e := New()
	fired := 0
	e.Schedule(time.Millisecond, func(time.Duration) { fired++ })
	e.Stop()
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Run resets a prior Stop)", fired)
	}
}

// TestDuplicateTimestampOrderAtScale interleaves Schedule and ScheduleAt
// across >100k events with only 512 distinct timestamps, so every
// timestamp carries hundreds of duplicates. The engine must pop in exact
// (timestamp, scheduling-sequence) order.
func TestDuplicateTimestampOrderAtScale(t *testing.T) {
	const events = 120_000
	const distinct = 512
	e := New()
	type key struct {
		at  time.Duration
		idx int
	}
	want := make([]key, 0, events)
	got := make([]key, 0, events)
	for i := 0; i < events; i++ {
		// A multiplicative hash scatters arrival order across timestamps
		// while staying deterministic.
		at := time.Duration((i*2654435761)%distinct) * time.Millisecond
		k := key{at: at, idx: i}
		want = append(want, k)
		fn := func(now time.Duration) {
			if now != k.at {
				t.Errorf("event %d fired at %v, scheduled for %v", k.idx, now, k.at)
			}
			got = append(got, k)
		}
		// Alternate the two scheduling surfaces; both must land in the
		// same sequence-numbered order.
		if i%2 == 0 {
			e.ScheduleAt(at, fn)
		} else {
			e.Schedule(at, fn) // now is still 0: same absolute instant
		}
	}
	if e.Pending() != events {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), events)
	}
	e.Run()
	if len(got) != events {
		t.Fatalf("ran %d events, want %d", len(got), events)
	}
	// Expected order: stable sort by timestamp — duplicates keep their
	// scheduling order.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: fired (%v, #%d), want (%v, #%d)",
				i, got[i].at, got[i].idx, want[i].at, want[i].idx)
		}
	}
}

// TestSameInstantNestedSchedulingAtScale verifies that events scheduled
// from inside an event at the current instant run in the same pass, after
// every already-queued event at that instant — even with a deep queue.
func TestSameInstantNestedSchedulingAtScale(t *testing.T) {
	const width = 50_000
	e := New()
	var order []int
	for i := 0; i < width; i++ {
		i := i
		e.ScheduleAt(time.Second, func(time.Duration) {
			order = append(order, i)
			if i == 0 {
				// Spawned at the same instant: must run after the other
				// width-1 queued events, in spawn order.
				e.Schedule(0, func(time.Duration) { order = append(order, width) })
				e.Schedule(0, func(time.Duration) { order = append(order, width+1) })
			}
		})
	}
	e.Run()
	if len(order) != width+2 {
		t.Fatalf("ran %d events, want %d", len(order), width+2)
	}
	for i := 0; i < width+2; i++ {
		if order[i] != i {
			t.Fatalf("position %d ran event %d, want %d", i, order[i], i)
		}
	}
	if e.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s (zero-delay events at the same instant)", e.Now())
	}
}
