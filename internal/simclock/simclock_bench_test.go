package simclock

import (
	"testing"
	"time"
)

// BenchmarkEngine measures the event loop alone, shaped like a fleet
// run: an arrival stream fed from a cursor and a few thousand events in
// flight. The arrivals come at a fixed gap from an unbounded feed. The
// in-flight events each schedule a successor at a seeded pseudo-random
// delay, like node completions, and fire about four times as often as
// arrivals. One op is one fired event; the steady state allocates
// nothing.
func BenchmarkEngine(b *testing.B) {
	const (
		inflight = 4096
		gap      = 200 * time.Microsecond
		maxDelay = 400 * time.Millisecond
	)
	e := New()
	arrived := 0
	e.Feed(func() (time.Duration, bool) { return time.Duration(arrived) * gap, true },
		func(time.Duration) { arrived++ })
	rnd := uint64(0x9e3779b97f4a7c15)
	var complete Event
	complete = func(time.Duration) {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		e.Schedule(time.Duration(rnd%uint64(maxDelay)), complete)
	}
	for i := 0; i < inflight; i++ {
		complete(0)
	}
	// Warm up past a full turn of the in-flight delays, so both queues
	// have reached their steady-state capacity before timing starts.
	for e.Now() < 3*maxDelay/2 {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
