// Package chunk fills an index range on parallel workers, one contiguous
// chunk per worker. Request generation, profiling and the synthesizer's
// budget sweep all run on it. Each index's result must depend on the
// index alone, never on which chunk or worker computed it, so the output
// is the same at any worker count.
package chunk

import (
	"runtime"
	"sync"
)

// Run splits [0, n) into contiguous chunks of near-equal length and
// calls fn(lo, hi) once per chunk, concurrently, returning when every
// call has. It makes at most workers chunks (GOMAXPROCS when workers <=
// 0), and no more than n/grain, so no chunk is shorter than grain unless
// the whole range is; a single chunk runs on the calling goroutine. fn
// may keep per-chunk state (arenas, streams) of its own.
func Run(n, grain, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := min(workers, n/max(grain, 1))
	if chunks <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(c*n/chunks, (c+1)*n/chunks)
	}
	fn(0, n/chunks)
	wg.Wait()
}
