// Package simclock provides a deterministic discrete-event simulation
// engine driven by a virtual clock.
//
// All latencies in the repository are modeled, not slept: components
// schedule callbacks at virtual timestamps, or feed a pre-ordered stream
// of them (Engine.Feed), and the engine executes them in time order.
// Ties are broken by scheduling sequence, a fed event ahead of every
// scheduled one, so that runs are fully reproducible for a fixed seed.
package simclock

import (
	"fmt"
	"time"
)

// Event is a callback executed at its scheduled virtual time.
type Event func(now time.Duration)

type item struct {
	at  time.Duration
	seq uint64
	fn  Event
}

// before is the engine's one ordering: earlier instant first, then
// earlier scheduling sequence. Sequences are unique, so it is total.
func (a *item) before(b *item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use and starts at virtual time zero.
//
// Scheduled events live in two queues. The lane is a FIFO of events that
// arrived in (at, seq) order: an event whose instant is no earlier than
// the newest lane entry's is appended there. Every other event goes to a
// binary min-heap. Each queue's head is its own minimum (the lane
// because it is sorted), so Step pops whichever head comes first and the
// engine fires in exactly (at, seq) order; the split only keeps the heap
// down to the work in flight. Neither queue boxes its items, so
// scheduling and firing an event allocate nothing once the queues have
// grown to the run's depth.
//
// A pre-ordered stream known up front, such as a run's arrivals, need
// not be queued at all: Feed hands the engine a cursor over it, and the
// engine holds only the stream's next instant.
type Engine struct {
	now     time.Duration
	seq     uint64
	heap    []item
	lane    []item // lane[head:] is pending, ascending by (at, seq)
	head    int
	stopped bool
	// feedNext and feedFire are the feed's cursor and event; feedAt is
	// the instant of its next event when fed is set.
	feedNext func() (time.Duration, bool)
	feedFire Event
	feedAt   time.Duration
	fed      bool
}

// New returns an Engine starting at virtual time zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Feed hands the engine a pre-ordered event stream without queueing it:
// next reports the instant of the stream's next event without consuming
// it, or false once the stream is exhausted, and fire runs that event,
// consuming it. The engine calls next now and again after every fire,
// so it holds one instant of the stream, not the stream.
//
// A fed event fires after every earlier event and before any scheduled
// event at the same instant, whenever either was scheduled: exactly
// where it would fire had the whole stream been scheduled, in order,
// before everything else. next must report instants that never
// decrease and never precede Now; an instant before Now panics, like
// ScheduleAt in the past. An engine has one feed: Feed panics while the
// previous one still has events, and fire must not call it.
func (e *Engine) Feed(next func() (time.Duration, bool), fire Event) {
	if next == nil || fire == nil {
		panic("simclock: Feed with nil cursor or event")
	}
	if e.fed {
		panic("simclock: Feed while the previous feed has events")
	}
	e.feedNext, e.feedFire = next, fire
	e.advanceFeed()
}

// advanceFeed reads the feed's next instant, dropping an exhausted feed.
func (e *Engine) advanceFeed() {
	at, ok := e.feedNext()
	if !ok {
		e.feedNext, e.feedFire, e.fed = nil, nil, false
		return
	}
	if at < e.now {
		panic(fmt.Sprintf("simclock: feed event at %v before now %v", at, e.now))
	}
	e.feedAt, e.fed = at, true
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (run at the current instant, after already-queued events at the
// same instant).
func (e *Engine) Schedule(delay time.Duration, fn Event) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute virtual time. Scheduling in the
// past panics: it would silently reorder causality.
func (e *Engine) ScheduleAt(at time.Duration, fn Event) {
	if fn == nil {
		panic("simclock: ScheduleAt with nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("simclock: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	it := item{at: at, seq: e.seq, fn: fn}
	// The new sequence is the largest yet, so an instant no earlier than
	// the newest lane entry's keeps the lane sorted.
	if n := len(e.lane); n == e.head || at >= e.lane[n-1].at {
		e.lane = append(e.lane, it)
		return
	}
	e.push(it)
}

// Step executes the earliest pending event and reports whether one ran.
func (e *Engine) Step() bool {
	if e.fed && (e.head == len(e.lane) || e.feedAt <= e.lane[e.head].at) &&
		(len(e.heap) == 0 || e.feedAt <= e.heap[0].at) {
		e.now = e.feedAt
		e.feedFire(e.now)
		e.advanceFeed()
		return true
	}
	var it item
	switch {
	case e.head < len(e.lane) && (len(e.heap) == 0 || e.lane[e.head].before(&e.heap[0])):
		it = e.popLane()
	case len(e.heap) > 0:
		it = e.pop()
	default:
		return false
	}
	e.now = it.at
	it.fn(e.now)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the current Run return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events, counting a feed that
// still has events as one.
func (e *Engine) Pending() int {
	n := len(e.heap) + len(e.lane) - e.head
	if e.fed {
		n++
	}
	return n
}

// popLane removes the lane's head. The vacated slot is zeroed so the
// engine does not keep a fired callback reachable, and the consumed
// prefix is reclaimed once it is at least half the slice — moving at
// most one live item per pop, amortized.
func (e *Engine) popLane() item {
	it := e.lane[e.head]
	e.lane[e.head] = item{}
	e.head++
	switch n := len(e.lane); {
	case e.head == n:
		e.lane, e.head = e.lane[:0], 0
	case 2*e.head >= n:
		live := copy(e.lane, e.lane[e.head:])
		clear(e.lane[live:])
		e.lane, e.head = e.lane[:live], 0
	}
	return it
}

// push adds it to the heap, sifting the hole up from the new leaf.
func (e *Engine) push(it item) {
	h := append(e.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	e.heap = h
}

// pop removes the heap's minimum: the last leaf fills the root's hole,
// sifting down past every smaller child.
func (e *Engine) pop() item {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = item{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.heap = h
	return top
}
