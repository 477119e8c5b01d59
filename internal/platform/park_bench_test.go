package platform

import "testing"

// BenchmarkParkWake measures the indexed wake cycle at fleet depth: a
// park queue thousands deep across several functions with mixed
// allocations, woken under per-function thresholds that shift every
// iteration (so different subsets admit), with every admitted entry
// re-parked to hold the depth constant. The bench guard pins it at 0
// allocs/op: the wake path runs millions of times per fleet-grid
// config, and a single per-admission allocation there is the
// difference the BENCH_PR6 → PR9 trajectory exists to catch. Warm-up
// iterations before the timer grow the queue arrays to steady state —
// afterwards tombstone pressure resolves by in-place compaction, never
// by growth.

// benchThresholds is a fixed per-slot threshold table (parkThresholds
// without a cluster behind it).
type benchThresholds struct{ thr []int }

func (b *benchThresholds) threshold(slot int) int { return b.thr[slot] }

func BenchmarkParkWake(b *testing.B) {
	const fns = 8
	const depth = 4096
	var px parkIndex
	px.init(fns)
	for i := 0; i < depth; i++ {
		px.park(i%fns, parkedNode{group: int32(i), mc: int32(100 * (1 + (i*7)%40))})
	}
	thr := &benchThresholds{thr: make([]int, fns)}
	woken := make([]parkedNode, 0, depth)
	cycle := func(i int) {
		// Shift each function's threshold so successive iterations admit
		// different mixed subsets (including none for some functions).
		for s := range thr.thr {
			thr.thr[s] = 100 * (1 + (i+s*5)%40)
		}
		cursor, limit := uint64(0), px.seq
		woken = woken[:0]
		for {
			slot, pos, seq, ok := px.next(cursor, limit, thr)
			if !ok {
				break
			}
			woken = append(woken, px.take(slot, pos))
			cursor = seq + 1
		}
		for j := range woken {
			px.park(int(woken[j].slot), woken[j])
		}
	}
	// Warm to steady state before the timer: array growth must never
	// land in a timed iteration, however few of them the run has.
	for i := 0; i < 64; i++ {
		cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}
