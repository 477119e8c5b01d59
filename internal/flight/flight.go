// Package flight provides a memoizing singleflight for the experiment
// suite's artifacts — profiles, deployments, workloads, serving runs.
// They are expensive and keyed, and when the suite fans points out over
// its worker pool, several workers can need the same key at once. A Group runs the fill function exactly once per key while
// duplicates block and share the result, and it keeps each successful
// result, so later callers get it without recomputing. Parallel sweeps
// therefore never duplicate a profile computation and never observe a
// half-built artifact.
package flight

import "sync"

// Group deduplicates and remembers calls by key. The zero value is ready
// to use. A successful result is kept for the Group's lifetime; a failed
// call is forgotten, so the next caller of its key runs fn again.
type Group struct {
	mu    sync.Mutex
	calls map[string]*call
}

type call struct {
	wg  sync.WaitGroup
	val any
	err error
	// dups counts callers sharing this call (test observability).
	dups int
}

// pendingDups reports how many callers have joined the call for key
// after its owner, 0 if there is none. Tests use it to sequence
// deterministically.
func (g *Group) pendingDups(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return 0
}

// Do returns the result of fn for key, running fn only if no call for
// key has succeeded or is in flight. Callers that arrive while the call
// is in flight wait for it and receive the same result; callers that
// arrive after it succeeded receive the kept result at once.
func (g *Group) Do(key string, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call)
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err
	}
	c := &call{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	if c.err != nil {
		// Forget the failure before releasing its waiters: they share
		// this error, and any later caller retries.
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
	}
	c.wg.Done()
	return c.val, c.err
}
