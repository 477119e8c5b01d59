package simclock

import (
	"testing"
	"time"
)

// BenchmarkEngine measures the event loop alone, shaped like a fleet
// run: a deep preloaded arrival stream and a few thousand events in
// flight. The arrivals are 100k events at a fixed gap; each one fired
// schedules its successor one stream-length later, so the stream stays
// 100k deep and in order. The in-flight events each schedule a successor
// at a seeded pseudo-random delay, like node completions, and fire about
// four times as often as arrivals. One op is one fired event; the steady
// state allocates nothing.
func BenchmarkEngine(b *testing.B) {
	const (
		arrivals = 100_000
		inflight = 4096
		gap      = 200 * time.Microsecond
		maxDelay = 400 * time.Millisecond
	)
	e := New()
	var arrive Event
	arrive = func(time.Duration) { e.Schedule(arrivals*gap, arrive) }
	rnd := uint64(0x9e3779b97f4a7c15)
	var complete Event
	complete = func(time.Duration) {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		e.Schedule(time.Duration(rnd%uint64(maxDelay)), complete)
	}
	for i := 0; i < arrivals; i++ {
		e.ScheduleAt(time.Duration(i)*gap, arrive)
	}
	for i := 0; i < inflight; i++ {
		complete(0)
	}
	// Warm up past a full turn of the arrival stream, so both queues
	// have reached their steady-state capacity before timing starts.
	for e.Now() < 3*arrivals*gap/2 {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
