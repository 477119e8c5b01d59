package chunk

import (
	"sync"
	"testing"
)

// TestRunCoversRangeOnce checks that the chunks tile [0, n) exactly,
// that their count honours both the worker and the grain bound, and
// that no chunk is shorter than grain unless it is the only one.
func TestRunCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ n, grain, workers, chunks int }{
		{0, 1, 4, 0},
		{1, 1, 4, 1},
		{7, 1, 4, 4},
		{21, 1, 2, 2},
		{21, 1, 8, 8},
		{100, 256, 8, 1},
		{600, 256, 8, 2},
		{5000, 256, 8, 8},
		{5000, 0, 3, 3},
		{10, 1, 1, 1},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		chunks := 0
		Run(tc.n, tc.grain, tc.workers, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			chunks++
			if tc.chunks > 1 && hi-lo < tc.grain {
				t.Errorf("n=%d grain=%d workers=%d: chunk [%d, %d) is shorter than the grain", tc.n, tc.grain, tc.workers, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		if chunks != tc.chunks {
			t.Errorf("n=%d grain=%d workers=%d: %d chunks, want %d", tc.n, tc.grain, tc.workers, chunks, tc.chunks)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d grain=%d workers=%d: index %d visited %d times", tc.n, tc.grain, tc.workers, i, c)
			}
		}
	}
}
