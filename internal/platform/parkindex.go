package platform

import "math"

// This file holds the indexed park queue that replaced the flat FIFO
// wake scan. The contract is exact emulation: a wake must admit parked
// acquisitions in precisely the order the seed forward scan did —
// repeatedly, the entry with the smallest global arrival sequence at or
// after the scan cursor whose allocation fits its function's current
// AcquireThreshold — without visiting the entries it skips. Parked
// entries bucket per function (the threshold is a per-function value),
// each bucket keeps FIFO arrival order under a min-millicore segment
// tree, and a wake step is a binary search plus one tree descent per
// function: O(functions · log parked) instead of O(parked) copies.

// parkSentinel marks a vacated leaf (a woken entry, or tree padding
// past the bucket's tail). It compares greater than every real
// allocation, so tombstones are invisible to the min index.
const parkSentinel = int32(math.MaxInt32)

// parkThresholds supplies the per-slot acquire threshold a wake step
// gates on. A slot is a function's cluster index. The serving plane's
// runState implements it with a cache invalidated by the cluster's
// mutation generation; the differential and fuzz harnesses implement it
// with a model.
type parkThresholds interface {
	threshold(slot int) int
}

// parkQueue is one function's parked acquisitions: records in FIFO
// arrival order (seqs strictly ascending), indexed by a 1-based
// segment tree over each record's millicores so "first entry at or
// after a cursor that fits a threshold" is one descent. Woken entries
// tombstone their leaf in place instead of compacting eagerly — a
// failed retry must restore at its original position to keep FIFO
// order, and tombstones are reclaimed amortized when the array fills.
type parkQueue struct {
	seqs []uint64
	recs []parkedNode
	// tree[base+i] is recs[i].mc (or parkSentinel when vacated);
	// tree[i] for i < base is the min of its two children. len(tree)
	// is 2*base with base a power of two.
	tree []int32
	base int
	live int
}

// push appends a fresh park at the queue's tail. seq must exceed every
// sequence already present (global arrival order). When the backing
// array is full it is compacted in place if at least half the slots
// are tombstones, and doubled otherwise — both amortized O(1) per
// push against the pushes that filled it.
func (q *parkQueue) push(seq uint64, rec parkedNode) {
	if len(q.seqs) == q.base {
		if dead := len(q.seqs) - q.live; q.base > 0 && dead*2 >= q.base {
			q.compact()
		} else {
			q.grow()
		}
	}
	pos := len(q.seqs)
	q.seqs = append(q.seqs, seq)
	q.recs = append(q.recs, rec)
	q.setLeaf(pos, rec.mc)
	q.live++
}

// take vacates position pos (a woken entry leaving the queue). The
// record and sequence stay in place so a failed retry can restore.
func (q *parkQueue) take(pos int) {
	q.setLeaf(pos, parkSentinel)
	q.live--
}

// restore undoes a take at the entry's original position, preserving
// its place in FIFO order. Valid only while no compaction has run
// since the take — the wake loop restores synchronously within the
// failed dispatch, before any push can intervene.
func (q *parkQueue) restore(pos int) {
	q.setLeaf(pos, q.recs[pos].mc)
	q.live++
}

// minMc reports the smallest live allocation in the queue, or
// parkSentinel when empty — the integer compare that lets a wake skip
// the whole function when its threshold sits below every parked entry.
func (q *parkQueue) minMc() int32 {
	if q.base == 0 {
		return parkSentinel
	}
	return q.tree[1]
}

// search returns the first position whose sequence is >= cursor
// (tombstones included; the tree descent skips them by sentinel).
func (q *parkQueue) search(cursor uint64) int {
	lo, hi := 0, len(q.seqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.seqs[mid] < cursor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstFit returns the smallest position >= lo whose live allocation
// is <= maxMc, or -1. One leaf-to-root climb along the right spine
// plus one root-to-leaf descent: O(log parked).
func (q *parkQueue) firstFit(lo int, maxMc int32) int {
	if lo >= len(q.seqs) {
		return -1
	}
	i := q.base + lo
	for {
		if q.tree[i] <= maxMc {
			// This subtree holds a fit; descend to its leftmost one.
			for i < q.base {
				i <<= 1
				if q.tree[i] > maxMc {
					i++
				}
			}
			return i - q.base
		}
		// Climb while we are a right child, then step to the sibling
		// subtree on our right. Climbing off the root (index 1 is odd)
		// means nothing at or after lo fits.
		for i&1 == 1 {
			i >>= 1
			if i == 0 {
				return -1
			}
		}
		i++
	}
}

// setLeaf writes one leaf and pulls the min toward the root, stopping
// at the first unchanged ancestor.
func (q *parkQueue) setLeaf(pos int, v int32) {
	i := q.base + pos
	q.tree[i] = v
	for i >>= 1; i >= 1; i >>= 1 {
		m := q.tree[2*i]
		if r := q.tree[2*i+1]; r < m {
			m = r
		}
		if q.tree[i] == m {
			break
		}
		q.tree[i] = m
	}
}

// rebuild recomputes every internal node from the leaves.
func (q *parkQueue) rebuild() {
	for i := q.base - 1; i >= 1; i-- {
		m := q.tree[2*i]
		if r := q.tree[2*i+1]; r < m {
			m = r
		}
		q.tree[i] = m
	}
}

// compact drops tombstoned entries, keeping live ones in order at the
// same base. Only called when at least half the slots are dead, so the
// space reclaimed pays for the rebuild.
func (q *parkQueue) compact() {
	w := 0
	for i := range q.seqs {
		if q.tree[q.base+i] != parkSentinel {
			q.seqs[w], q.recs[w] = q.seqs[i], q.recs[i]
			w++
		}
	}
	clear(q.recs[w:]) // release reqState pointers held by dead slots
	q.seqs, q.recs = q.seqs[:w], q.recs[:w]
	for i := range q.base {
		if i < w {
			q.tree[q.base+i] = q.recs[i].mc
		} else {
			q.tree[q.base+i] = parkSentinel
		}
	}
	q.rebuild()
}

// grow doubles the tree (base 4 from empty), carrying leaves —
// tombstones included — and rebuilding the internals.
func (q *parkQueue) grow() {
	nb := q.base * 2
	if nb == 0 {
		nb = 4
	}
	nt := make([]int32, 2*nb)
	for i := range nt {
		nt[i] = parkSentinel
	}
	copy(nt[nb:], q.tree[q.base:q.base+len(q.seqs)])
	q.base, q.tree = nb, nt
	q.rebuild()
}

// parkIndex is the run-wide park structure: one parkQueue per function
// (slot = the function's cluster index), a global arrival sequence that
// totally orders parks across functions, and the live count the
// starvation report uses.
type parkIndex struct {
	queues []parkQueue
	// seq is the next global arrival sequence; entries parked at or
	// after a scan's start (seq >= the scan's limit snapshot) are
	// invisible to that scan, exactly as the seed's snapshot was.
	seq  uint64
	live int
}

// init sizes the index at one empty queue per function.
func (px *parkIndex) init(fns int) {
	px.queues = make([]parkQueue, fns)
}

// park enqueues a fresh park at the global tail of its function's
// queue.
func (px *parkIndex) park(slot int, rec parkedNode) {
	rec.slot = int32(slot)
	px.queues[slot].push(px.seq, rec)
	px.seq++
	px.live++
}

// take removes the entry for dispatch, returning its record. Its slot
// stays reserved until the dispatch either succeeds or restores.
func (px *parkIndex) take(slot, pos int) parkedNode {
	q := &px.queues[slot]
	rec := q.recs[pos]
	q.take(pos)
	px.live--
	return rec
}

// restore re-parks a failed dispatch at its original position.
func (px *parkIndex) restore(slot, pos int) {
	px.queues[slot].restore(pos)
	px.live++
}

// next finds the wake scan's next admission: the live entry with the
// smallest global sequence in [cursor, limit) whose allocation fits
// its function's current threshold. Functions whose threshold sits
// below their queue's min are skipped with one integer compare — the
// threshold-event gate that makes saturated phases cost O(functions)
// per release instead of O(parked).
func (px *parkIndex) next(cursor, limit uint64, thr parkThresholds) (slot, pos int, seq uint64, ok bool) {
	slot, pos, seq = -1, -1, limit
	for s := range px.queues {
		q := &px.queues[s]
		if q.live == 0 {
			continue
		}
		t := clampMc(thr.threshold(s))
		if q.minMc() > t {
			continue
		}
		p := q.firstFit(q.search(cursor), t)
		if p < 0 {
			continue
		}
		if qs := q.seqs[p]; qs < seq {
			slot, pos, seq = s, p, qs
		}
	}
	return slot, pos, seq, slot >= 0
}

// clampMc maps a threshold into the tree's int32 domain without ever
// colliding with the tombstone sentinel.
func clampMc(t int) int32 {
	if t >= int(parkSentinel) {
		return parkSentinel - 1
	}
	if t < 0 {
		return -1
	}
	return int32(t)
}
