package platform

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// This file locks the indexed park queue (parkindex.go) to the
// semantics of the seed's flat forward-scan wake. refPark below
// re-implements that scan literally — snapshot the FIFO queue, walk it
// in order, gate each entry on a per-function threshold cached between
// admission attempts, re-append skips and failed retries in place —
// and TestParkIndexMatchesReference drives both through long seeded
// random park/wake sequences, asserting identical wake order, attempt
// counts, and remaining-queue contents entry-for-entry after every op.
//
// Thresholds and acquire outcomes come from pure hash oracles keyed by
// the count of successful admissions, so both sides observe the same
// world by construction and the world obeys the cluster's contract:
// a failed acquire mutates nothing (the admission count — the only
// state thresholds depend on — does not move). Unlike the real
// cluster, the oracle threshold may overestimate (an entry that
// passes the gate can still fail its acquire), which exercises the
// index's restore-in-place path the exact threshold never reaches.

// parkWorld is the shared oracle state: thresholds are a pure function
// of (slot, admissions) and acquire outcomes of (entry id, admissions),
// so the only mutable state is the admission counter.
type parkWorld struct {
	seed       uint64
	admissions uint64
	maxThr     int
	// floor lifts every threshold; the drain phase raises it past the
	// largest parked allocation so every gate passes.
	floor int
	// alwaysAdmit forces every acquire to succeed — the drain phase
	// uses it, because with pure oracles a wake that admits nothing
	// leaves the world unchanged and would repeat forever.
	alwaysAdmit bool
}

// mix64 is SplitMix64's finalizer — a cheap, well-distributed pure hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (w *parkWorld) thresholdOf(slot int) int {
	h := mix64(w.seed ^ mix64(uint64(slot)+1) ^ mix64(w.admissions*0x9e3779b97f4a7c15))
	return w.floor + int(h%uint64(w.maxThr))
}

// acquire reports whether entry id's admission attempt succeeds at the
// current world state, bumping the admission count (the threshold
// epoch) only on success — a failed acquire mutates nothing.
func (w *parkWorld) acquire(id int32) bool {
	h := mix64(w.seed ^ 0xa5a5a5a5 ^ mix64(uint64(id)+1) ^ mix64(w.admissions+7))
	if w.alwaysAdmit || h%100 < 70 {
		w.admissions++
		return true
	}
	return false
}

// refParked is one parked entry in the reference: id stands in for the
// continuation identity, mc is the gated allocation.
type refParked struct {
	id   int32
	slot int
	mc   int32
}

// refPark is the seed implementation: a flat FIFO slice scanned in
// full on every wake, with the per-scan threshold cache keyed by a
// local generation bumped after every admission attempt.
type refPark struct {
	world   *parkWorld
	waiting []refParked
	slots   map[string]int
	fns     []string
	thr     []int
	thrGen  []int
	gen     int
}

func newRefPark(world *parkWorld) *refPark {
	return &refPark{world: world, slots: make(map[string]int)}
}

func (r *refPark) slotOf(fn string) int {
	s, ok := r.slots[fn]
	if !ok {
		s = len(r.slots)
		r.slots[fn] = s
		r.fns = append(r.fns, fn)
		r.thr = append(r.thr, 0)
		r.thrGen = append(r.thrGen, 0)
	}
	return s
}

func (r *refPark) park(fn string, id int32, mc int32) {
	r.waiting = append(r.waiting, refParked{id: id, slot: r.slotOf(fn), mc: mc})
}

// wake is the seed loop verbatim: snapshot, scan in FIFO order, gate on
// the cached threshold, re-append skips and failed retries in place,
// invalidate the cache after every admission attempt. It returns the
// woken ids in admission order and the number of acquire attempts.
func (r *refPark) wake() (woken []int32, attempts int) {
	if len(r.waiting) == 0 {
		return nil, 0
	}
	queue := r.waiting
	r.waiting = nil
	r.gen++
	for i := range queue {
		p := &queue[i]
		if r.thrGen[p.slot] != r.gen {
			r.thr[p.slot] = r.world.thresholdOf(p.slot)
			r.thrGen[p.slot] = r.gen
		}
		if int(p.mc) > r.thr[p.slot] {
			r.waiting = append(r.waiting, *p)
			continue
		}
		attempts++
		if r.world.acquire(p.id) {
			woken = append(woken, p.id)
		} else {
			r.waiting = append(r.waiting, *p)
		}
		r.gen++
	}
	return woken, attempts
}

// idxPark drives the real parkIndex through the same oracles, mirroring
// runState.wake's cursor loop (take, then restore on a failed acquire).
// slots numbers functions in first-park order, as the reference does, so
// both sides ask the threshold oracle about the same slots.
type idxPark struct {
	world *parkWorld
	px    parkIndex
	slots map[string]int
}

func newIdxPark(world *parkWorld, fns int) *idxPark {
	p := &idxPark{world: world, slots: make(map[string]int)}
	p.px.init(fns)
	return p
}

// threshold implements parkThresholds the way runState does, minus the
// generation cache (the oracle is cheap; the cache is a pure
// optimization the differential intentionally bypasses so a caching
// bug cannot mask an index bug).
func (p *idxPark) threshold(slot int) int {
	return p.world.thresholdOf(slot)
}

func (p *idxPark) park(fn string, id int32, mc int32) {
	s, ok := p.slots[fn]
	if !ok {
		s = len(p.slots)
		p.slots[fn] = s
	}
	// group carries the entry id: the index never interprets it.
	p.px.park(s, parkedNode{group: id, mc: mc})
}

func (p *idxPark) wake() (woken []int32, attempts int) {
	if p.px.live == 0 {
		return nil, 0
	}
	cursor, limit := uint64(0), p.px.seq
	for {
		slot, pos, seq, ok := p.px.next(cursor, limit, p)
		if !ok {
			return woken, attempts
		}
		rec := p.px.take(slot, pos)
		cursor = seq + 1
		attempts++
		if p.world.acquire(rec.group) {
			woken = append(woken, rec.group)
		} else {
			p.px.restore(slot, pos)
		}
	}
}

// contents lists the index's live entries in global FIFO order.
func (p *idxPark) contents() []refParked {
	type seqEntry struct {
		seq uint64
		e   refParked
	}
	var all []seqEntry
	for s := range p.px.queues {
		q := &p.px.queues[s]
		for i := range q.seqs {
			if q.tree[q.base+i] == parkSentinel {
				continue
			}
			all = append(all, seqEntry{seq: q.seqs[i], e: refParked{id: q.recs[i].group, slot: s, mc: q.recs[i].mc}})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]refParked, len(all))
	for i, s := range all {
		out[i] = s.e
	}
	return out
}

// checkParkInvariants recounts every structural invariant of the index
// from scratch: strictly ascending sequences per queue, tree leaves
// mirroring live records (sentinel elsewhere), internal nodes holding
// the min of their children, and live counters matching the recount.
func checkParkInvariants(t *testing.T, px *parkIndex) {
	t.Helper()
	totalLive := 0
	var lastSeq uint64
	seenAny := false
	for s := range px.queues {
		q := &px.queues[s]
		if q.base == 0 {
			if len(q.seqs) != 0 || q.live != 0 {
				t.Fatalf("queue %d: no tree but %d seqs, live %d", s, len(q.seqs), q.live)
			}
			continue
		}
		if len(q.tree) != 2*q.base {
			t.Fatalf("queue %d: tree len %d, base %d", s, len(q.tree), q.base)
		}
		if len(q.seqs) != len(q.recs) || len(q.seqs) > q.base {
			t.Fatalf("queue %d: %d seqs, %d recs, base %d", s, len(q.seqs), len(q.recs), q.base)
		}
		live := 0
		for i := range q.seqs {
			if i > 0 && q.seqs[i-1] >= q.seqs[i] {
				t.Fatalf("queue %d: seqs not strictly ascending at %d: %d >= %d", s, i, q.seqs[i-1], q.seqs[i])
			}
			leaf := q.tree[q.base+i]
			if leaf == parkSentinel {
				continue
			}
			if leaf != q.recs[i].mc {
				t.Fatalf("queue %d: leaf %d holds %d, record mc %d", s, i, leaf, q.recs[i].mc)
			}
			live++
			if seenAny && q.seqs[i] == lastSeq {
				t.Fatalf("duplicate global seq %d", lastSeq)
			}
		}
		for i := len(q.seqs); i < q.base; i++ {
			if q.tree[q.base+i] != parkSentinel {
				t.Fatalf("queue %d: padding leaf %d not sentinel: %d", s, i, q.tree[q.base+i])
			}
		}
		if live != q.live {
			t.Fatalf("queue %d: live %d, recount %d", s, q.live, live)
		}
		for i := 1; i < q.base; i++ {
			m := q.tree[2*i]
			if r := q.tree[2*i+1]; r < m {
				m = r
			}
			if q.tree[i] != m {
				t.Fatalf("queue %d: internal node %d holds %d, children min %d", s, i, q.tree[i], m)
			}
		}
		totalLive += live
	}
	if totalLive != px.live {
		t.Fatalf("index live %d, recount %d", px.live, totalLive)
	}
}

// parkDiff runs one differential op sequence, comparing after every op.
func parkDiff(t *testing.T, seed int64, steps int) {
	t.Helper()
	fns := []string{"fa", "fb", "fc", "fd", "fe", "ff"}
	// Two worlds with identical parameters: each side consumes its own
	// admission counter, which the comparisons force to stay in step.
	// maxThr sits at half the allocation range: entries above it can
	// only leave in the drain, so queues run deep enough to force the
	// grow and tombstone-compaction paths.
	refWorld := &parkWorld{seed: uint64(seed) * 0x9e3779b97f4a7c15, maxThr: 2000}
	idxWorld := &parkWorld{seed: refWorld.seed, maxThr: refWorld.maxThr}
	ref := newRefPark(refWorld)
	idx := newIdxPark(idxWorld, len(fns))
	r := rand.New(rand.NewSource(seed))
	nextID := int32(0)
	for step := 0; step < steps; step++ {
		if r.Intn(6) > 0 { // park five times as often as wake: queues run deep
			fn := fns[r.Intn(len(fns))]
			mc := int32(100 + r.Intn(40)*100)
			ref.park(fn, nextID, mc)
			idx.park(fn, nextID, mc)
			nextID++
		} else {
			refWoken, refAttempts := ref.wake()
			idxWoken, idxAttempts := idx.wake()
			if fmt.Sprint(refWoken) != fmt.Sprint(idxWoken) {
				t.Fatalf("step %d: wake order diverged:\nreference %v\nindexed   %v", step, refWoken, idxWoken)
			}
			if refAttempts != idxAttempts {
				t.Fatalf("step %d: attempts diverged: reference %d, indexed %d", step, refAttempts, idxAttempts)
			}
			if refWorld.admissions != idxWorld.admissions {
				t.Fatalf("step %d: admission counters diverged: reference %d, indexed %d", step, refWorld.admissions, idxWorld.admissions)
			}
		}
		if idx.px.live != len(ref.waiting) {
			t.Fatalf("step %d: queue depth diverged: reference %d, indexed %d", step, len(ref.waiting), idx.px.live)
		}
		// Full-content and structural comparisons are O(parked); do them
		// periodically rather than per step to keep deep runs affordable.
		if step%43 == 0 || step == steps-1 {
			got := idx.contents()
			for i := range got {
				if got[i] != ref.waiting[i] {
					t.Fatalf("step %d: queue entry %d diverged: reference %+v, indexed %+v", step, i, ref.waiting[i], got[i])
				}
			}
			checkParkInvariants(t, &idx.px)
		}
	}
	// Drain with forced admissions so the tail (take churn toward empty
	// queues) is covered; a pure-oracle wake that admits nothing would
	// leave the world unchanged and never converge.
	refWorld.alwaysAdmit, idxWorld.alwaysAdmit = true, true
	refWorld.floor, idxWorld.floor = 4100, 4100
	for len(ref.waiting) > 0 {
		refWoken, _ := ref.wake()
		idxWoken, _ := idx.wake()
		if fmt.Sprint(refWoken) != fmt.Sprint(idxWoken) {
			t.Fatalf("drain: wake order diverged:\nreference %v\nindexed   %v", refWoken, idxWoken)
		}
	}
	if idx.px.live != 0 {
		t.Fatalf("drain: index still holds %d live entries", idx.px.live)
	}
}

func TestParkIndexMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			parkDiff(t, seed, 3000)
		})
	}
}
