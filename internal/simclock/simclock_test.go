package simclock

import (
	"fmt"
	"testing"
	"time"
)

func TestZeroValueStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunAdvancesClock(t *testing.T) {
	e := New()
	var fired []time.Duration
	e.Schedule(5*time.Millisecond, func(now time.Duration) { fired = append(fired, now) })
	e.Schedule(2*time.Millisecond, func(now time.Duration) { fired = append(fired, now) })
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[0] != 2*time.Millisecond || fired[1] != 5*time.Millisecond {
		t.Fatalf("events fired at %v, want [2ms 5ms]", fired)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func(time.Duration) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at same timestamp)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []time.Duration
	e.Schedule(time.Millisecond, func(now time.Duration) {
		times = append(times, now)
		e.Schedule(3*time.Millisecond, func(now time.Duration) {
			times = append(times, now)
		})
	})
	e.Run()
	if len(times) != 2 || times[1] != 4*time.Millisecond {
		t.Fatalf("nested event times = %v, want [1ms 4ms]", times)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(10*time.Millisecond, func(now time.Duration) {
		e.Schedule(-time.Second, func(inner time.Duration) {
			if inner != now {
				t.Errorf("negative-delay event at %v, want %v", inner, now)
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(time.Second, func(time.Duration) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(time.Millisecond, func(time.Duration) {})
}

func TestNilEventPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestStopHaltsRun(t *testing.T) {
	e := New()
	var fired int
	e.Schedule(time.Second, func(time.Duration) {
		fired++
		e.Stop()
	})
	e.Schedule(2*time.Second, func(time.Duration) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 after Stop", fired)
	}
	// A second Run resumes with the remaining events.
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 after resuming", fired)
	}
}

func TestManyEventsStayOrdered(t *testing.T) {
	e := New()
	last := time.Duration(-1)
	for i := 0; i < 1000; i++ {
		d := time.Duration((i*7919)%503) * time.Millisecond
		e.Schedule(d, func(now time.Duration) {
			if now < last {
				t.Errorf("event at %v ran after %v", now, last)
			}
			last = now
		})
	}
	e.Run()
}

// TestFeedOrder pins where fed events fire: after every earlier event,
// scheduled before or after the feed, and before every scheduled event
// at their own instant, including one a fed event schedules at that
// instant; a Stop inside a fed event holds the rest of the feed for the
// next Run, and Pending counts the feed as one event until its cursor
// runs dry.
func TestFeedOrder(t *testing.T) {
	e := New()
	var order []string
	at := func(name string) Event {
		return func(time.Duration) { order = append(order, name) }
	}
	e.ScheduleAt(time.Millisecond, at("s1"))
	e.ScheduleAt(2*time.Millisecond, at("s2"))
	fed := []struct {
		at   time.Duration
		name string
	}{{2 * time.Millisecond, "f0"}, {2 * time.Millisecond, "f1"}, {4 * time.Millisecond, "f2"}}
	next := 0
	e.Feed(func() (time.Duration, bool) {
		if next == len(fed) {
			return 0, false
		}
		return fed[next].at, true
	}, func(now time.Duration) {
		f := fed[next]
		next++
		if now != f.at {
			t.Errorf("%s fired at %v, fed for %v", f.name, now, f.at)
		}
		order = append(order, f.name)
		switch f.name {
		case "f0":
			e.Schedule(0, at("z"))
		case "f1":
			e.Stop()
		}
	})
	e.ScheduleAt(3*time.Millisecond, at("s3"))
	if got := e.Pending(); got != 4 {
		t.Fatalf("Pending() = %d before the run, want 3 scheduled events and the feed", got)
	}
	e.Run()
	if want := "[s1 f0 f1]"; fmt.Sprint(order) != want {
		t.Fatalf("run stopped by f1 fired %v, want %s", order, want)
	}
	if e.Now() != 2*time.Millisecond || e.Pending() != 4 {
		t.Fatalf("after the stop: Now() = %v, Pending() = %d, want 2ms and 4 (s2, z, s3 and the feed)", e.Now(), e.Pending())
	}
	e.Run()
	if want := "[s1 f0 f1 s2 z s3 f2]"; fmt.Sprint(order) != want {
		t.Fatalf("fired %v, want %s", order, want)
	}
	if e.Pending() != 0 || e.Step() {
		t.Fatalf("drained engine reports Pending() = %d or steps again", e.Pending())
	}
	// An exhausted feed makes room for another.
	e.Feed(func() (time.Duration, bool) { return 0, false }, at("never"))
	if e.Pending() != 0 {
		t.Fatalf("an empty feed counts as %d pending events", e.Pending())
	}
}

// TestFeedMisusePanics checks the feed's contract: a second feed while
// the first has events, and a fed instant before Now, both panic.
func TestFeedMisusePanics(t *testing.T) {
	never := func() (time.Duration, bool) { return time.Second, true }
	for name, misuse := range map[string]func(e *Engine){
		"second feed": func(e *Engine) {
			e.Feed(never, func(time.Duration) {})
			e.Feed(never, func(time.Duration) {})
		},
		"fed into the past": func(e *Engine) {
			e.ScheduleAt(2*time.Second, func(time.Duration) {})
			e.Run()
			e.Feed(never, func(time.Duration) {})
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			misuse(New())
		})
	}
}
