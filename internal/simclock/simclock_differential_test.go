package simclock

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"time"
)

// refEngine is the container/heap engine the lane/heap split replaced,
// kept verbatim in behaviour as the differential oracle: one boxed heap
// over (at, seq), every event pushed and popped through it. It models a
// feed the way the engine used to be fed, by preloading the stream's
// events, here with sequence numbers below every scheduled event's, so
// a fed event fires before any scheduled event at its instant.
type refEngine struct {
	now     time.Duration
	seq     int64
	pending refHeap
	stopped bool
	// fseq numbers preloaded events from math.MinInt64 up. fedQueued
	// counts the preloaded events still queued, fedLeft those that have
	// not finished firing: the feed counts as one pending event until
	// its last event has fired.
	fseq               int64
	fedQueued, fedLeft int
}

type refItem struct {
	at  time.Duration
	seq int64
	fn  Event
	fed bool
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(refItem)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// preload queues one event of a fed stream, after the stream's earlier
// events and before every scheduled event at the same instant.
func (e *refEngine) preload(at time.Duration, fn Event) {
	heap.Push(&e.pending, refItem{at: at, seq: math.MinInt64 + e.fseq, fn: fn, fed: true})
	e.fseq++
	e.fedQueued++
	e.fedLeft++
}

func (e *refEngine) Now() time.Duration { return e.now }

func (e *refEngine) Schedule(delay time.Duration, fn Event) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

func (e *refEngine) ScheduleAt(at time.Duration, fn Event) {
	if fn == nil {
		panic("simclock: ScheduleAt with nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.pending, refItem{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) Step() bool {
	if len(e.pending) == 0 {
		return false
	}
	it := heap.Pop(&e.pending).(refItem)
	if it.fed {
		e.fedQueued--
	}
	e.now = it.at
	it.fn(e.now)
	if it.fed {
		e.fedLeft--
	}
	return true
}

func (e *refEngine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Pending() int {
	n := len(e.pending) - e.fedQueued
	if e.fedLeft > 0 {
		n++
	}
	return n
}

// engine is the surface both implementations share.
type engine interface {
	Now() time.Duration
	Schedule(delay time.Duration, fn Event)
	ScheduleAt(at time.Duration, fn Event)
	Step() bool
	Run()
	Stop()
	Pending() int
}

// decisions is a deterministic choice stream: a seeded PRNG for the
// differential test, the fuzzer's byte tape for FuzzEngineOrder.
type decisions interface{ intn(n int) int }

// splitmix is a splitmix64 generator.
type splitmix struct{ s uint64 }

func (p *splitmix) intn(n int) int {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// byteTape reads one byte per choice and answers 0 once exhausted, so
// every tape drives a finite program.
type byteTape struct {
	b []byte
	i int
}

func (t *byteTape) intn(n int) int {
	if t.i >= len(t.b) {
		return 0
	}
	v := int(t.b[t.i])
	t.i++
	return v % n
}

// maxSpawned bounds the events scheduled from inside events, so every
// program drains.
const maxSpawned = 3000

// firing is one executed event as its engine saw it.
type firing struct {
	at      time.Duration
	id      int
	pending int
}

// side drives one engine. Both sides of a comparison get identical
// decision streams, so they schedule identical events as long as they
// fire identically — and the first divergence shows in the log.
type side struct {
	t       *testing.T
	e       engine
	d       decisions
	log     []firing
	ids     int
	spawned int
	last    time.Duration
	// feeding counts the current feed's events not yet fired.
	feeding int
}

// delay draws a scheduling delay skewed toward collisions: the current
// instant, a handful of near instants every event shares, or a spread.
func (s *side) delay() time.Duration {
	switch s.d.intn(5) {
	case 0:
		return 0
	case 1:
		return time.Duration(1+s.d.intn(3)) * time.Millisecond
	case 2:
		return time.Duration(s.d.intn(50)) * time.Millisecond
	case 3:
		return -time.Duration(1+s.d.intn(5)) * time.Millisecond // clamps to now
	default:
		return time.Duration(s.d.intn(1000)) * time.Millisecond
	}
}

// fire is event id's body, scheduled or fed: it logs the firing, may
// stop the run, and may schedule more events.
func (s *side) fire(id int, now time.Duration) {
	if now < s.last {
		s.t.Fatalf("event %d fired at %v after an event at %v: the clock ran backwards", id, now, s.last)
	}
	if now != s.e.Now() {
		s.t.Fatalf("event %d fired with now=%v but Now()=%v", id, now, s.e.Now())
	}
	s.last = now
	s.log = append(s.log, firing{at: now, id: id, pending: s.e.Pending()})
	if s.d.intn(9) == 1 {
		s.e.Stop()
	}
	for k := s.d.intn(3); k > 0 && s.spawned < maxSpawned; k-- {
		s.spawned++
		s.schedule(s.delay())
	}
}

// schedule adds one event through either scheduling surface.
func (s *side) schedule(delay time.Duration) {
	id := s.ids
	s.ids++
	fn := func(now time.Duration) { s.fire(id, now) }
	if delay >= 0 && s.d.intn(2) == 0 {
		s.e.ScheduleAt(s.e.Now()+delay, fn)
	} else {
		s.e.Schedule(delay, fn)
	}
}

// feed hands the engine a pre-ordered stream of events at the ascending
// instants ats: the engine through Feed and a cursor, the reference by
// preloading every event.
func (s *side) feed(ats []time.Duration) {
	first := s.ids
	s.ids += len(ats)
	s.feeding = len(ats)
	switch e := s.e.(type) {
	case *Engine:
		next := 0
		e.Feed(func() (time.Duration, bool) {
			if next == len(ats) {
				return 0, false
			}
			return ats[next], true
		}, func(now time.Duration) {
			id := first + next
			next++
			s.feeding--
			s.fire(id, now)
		})
	case *refEngine:
		for i, at := range ats {
			e.preload(at, func(now time.Duration) {
				s.feeding--
				s.fire(first+i, now)
			})
		}
	}
}

// runProgram drives the new engine and the reference through the same
// program: bursts of colliding events, monotone bursts that fill the
// lane, single steps, runs cut short by in-event Stops, and fed streams
// (Feed, which the reference models by preloading), comparing every
// firing (instant, event, pending count), Now() and Pending() after
// every operation. ops, ref and got are three identical decision
// streams.
func runProgram(t *testing.T, ops, refD, gotD decisions, maxOps int) {
	ref := &side{t: t, e: &refEngine{}, d: refD}
	got := &side{t: t, e: New(), d: gotD}
	sides := []*side{ref, got}
	check := func(op string) {
		t.Helper()
		if len(got.log) != len(ref.log) {
			t.Fatalf("after %s: fired %d events, reference %d", op, len(got.log), len(ref.log))
		}
		for i := range ref.log {
			if got.log[i] != ref.log[i] {
				t.Fatalf("after %s: firing %d is %+v, reference %+v", op, i, got.log[i], ref.log[i])
			}
		}
		if got.e.Now() != ref.e.Now() || got.e.Pending() != ref.e.Pending() {
			t.Fatalf("after %s: Now()=%v Pending()=%d, reference Now()=%v Pending()=%d",
				op, got.e.Now(), got.e.Pending(), ref.e.Now(), ref.e.Pending())
		}
	}
	for op := 0; op < maxOps; op++ {
		switch ops.intn(6) {
		case 0: // a burst of colliding events
			n := 1 + ops.intn(20)
			for _, s := range sides {
				for i := 0; i < n; i++ {
					s.schedule(s.delay())
				}
			}
			check("burst")
		case 1: // a monotone burst: ascending instants with duplicates
			n, at, gaps := 1+ops.intn(60), time.Duration(ops.intn(100))*time.Millisecond, make([]time.Duration, 0, 60)
			for i := 0; i < n; i++ {
				gaps = append(gaps, time.Duration(ops.intn(3))*time.Millisecond)
			}
			for _, s := range sides {
				base := s.e.Now() + at
				for _, g := range gaps {
					base += g
					s.schedule(base - s.e.Now())
				}
			}
			check("monotone burst")
		case 2: // single steps
			n := 1 + ops.intn(10)
			for i := 0; i < n; i++ {
				r, g := ref.e.Step(), got.e.Step()
				if r != g {
					t.Fatalf("Step() = %v, reference %v", g, r)
				}
				check("step")
			}
		case 3: // run until an in-event Stop or the queue drains
			for _, s := range sides {
				s.e.Run()
			}
			check("run")
		case 4: // a fed stream, once the previous one has fired
			n, at := ops.intn(40), time.Duration(ops.intn(100))*time.Millisecond
			gaps := make([]time.Duration, n)
			for i := range gaps {
				gaps[i] = time.Duration(ops.intn(3)) * time.Millisecond
			}
			if got.feeding > 0 {
				break
			}
			for _, s := range sides {
				ats, base := make([]time.Duration, n), s.e.Now()+at
				for i, g := range gaps {
					base += g
					ats[i] = base
				}
				s.feed(ats)
			}
			check("feed")
		default: // a Stop outside Run does not preempt the next Run
			for _, s := range sides {
				s.e.Stop()
				s.e.Run()
			}
			check("stop then run")
		}
	}
	for ref.e.Pending() > 0 || got.e.Pending() > 0 {
		for _, s := range sides {
			s.e.Run()
		}
		check("drain")
	}
}

// TestEngineMatchesReference runs the lane/heap engine and the
// container/heap reference side by side over seeded random programs and
// requires identical firings, clocks and queue depths at every step.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runProgram(t, &splitmix{s: seed}, &splitmix{s: ^seed}, &splitmix{s: ^seed}, 120)
		})
	}
}

// FuzzEngineOrder runs the same differential program from a byte tape:
// the tape supplies every choice, op and in-event alike. CI replays the
// committed corpus; `go test -fuzz FuzzEngineOrder ./internal/simclock/`
// explores further.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x01, 0x3b, 0x05, 0x03})
	f.Add([]byte{0x00, 0x13, 0x01, 0x02, 0x03, 0x04, 0x02, 0x09, 0x03, 0x01, 0x20})
	f.Add([]byte{0x01, 0xff, 0x00, 0x00, 0x01, 0x40, 0x02, 0x02, 0x04, 0x00, 0x03})
	f.Add([]byte{0x04, 0x00, 0x09, 0x01, 0x00, 0x11, 0x02, 0x07, 0x03, 0x04, 0x01})
	f.Fuzz(func(t *testing.T, tape []byte) {
		runProgram(t, &byteTape{b: tape}, &byteTape{b: tape}, &byteTape{b: tape}, len(tape))
	})
}
