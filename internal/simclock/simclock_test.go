package simclock

import (
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
