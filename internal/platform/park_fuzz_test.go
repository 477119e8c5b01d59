package platform

import (
	"fmt"
	"testing"
)

// FuzzParkIndex decodes an arbitrary byte tape into a park/wake op
// sequence and drives the indexed park queue against the seed
// forward-scan reference (park_differential_test.go), comparing wake
// order, attempt counts, and remaining-queue contents after every op
// and recounting the index's structural invariants from scratch. The
// differential test pins random-but-well-formed sequences; the
// fuzzer's job is the adversarial tail — park bursts that force grow
// and tombstone-compaction at awkward fill ratios, wakes into empty
// or single-entry queues, and function skews no generator was written
// to produce. CI runs the checked-in corpus as a fixed regression
// suite; `go test -fuzz FuzzParkIndex ./internal/platform/` explores
// further.
func FuzzParkIndex(f *testing.F) {
	// Seed corpus: a park burst then wakes, alternating park/wake, a
	// single-function deep queue, and a high-mc queue no threshold
	// admits until the world turns.
	f.Add([]byte{0x01, 0x00, 0x10, 0x04, 0x20, 0x08, 0x30, 0x03, 0x00, 0x03, 0x00})
	f.Add([]byte{0x20, 0x00, 0x05, 0x03, 0x00, 0x01, 0x15, 0x03, 0x00, 0x02, 0x25, 0x03, 0x00})
	f.Add([]byte{0x07, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05,
		0x00, 0x06, 0x00, 0x07, 0x03, 0x00, 0x03, 0x00, 0x03, 0x00})
	f.Add([]byte{0xff, 0x02, 0x27, 0x06, 0x27, 0x0a, 0x27, 0x0e, 0x27, 0x03, 0x00,
		0x02, 0x27, 0x03, 0x00, 0x03, 0x00, 0x03, 0x00, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		fns := []string{"fa", "fb", "fc", "fd"}
		refWorld := &parkWorld{seed: mix64(uint64(tape[0]) + 1), maxThr: 2000}
		idxWorld := &parkWorld{seed: refWorld.seed, maxThr: refWorld.maxThr}
		ref := newRefPark(refWorld)
		idx := newIdxPark(idxWorld, len(fns))
		nextID := int32(0)
		for pos := 1; pos+1 < len(tape); pos += 2 {
			op, arg := tape[pos], tape[pos+1]
			switch op % 4 {
			case 0, 1, 2: // park
				fn := fns[int(op>>2)%len(fns)]
				mc := int32(100 * (1 + int(arg)%40))
				ref.park(fn, nextID, mc)
				idx.park(fn, nextID, mc)
				nextID++
			case 3: // wake
				refWoken, refAttempts := ref.wake()
				idxWoken, idxAttempts := idx.wake()
				if fmt.Sprint(refWoken) != fmt.Sprint(idxWoken) {
					t.Fatalf("op %#x at %d: wake order diverged:\nreference %v\nindexed   %v", op, pos, refWoken, idxWoken)
				}
				if refAttempts != idxAttempts || refWorld.admissions != idxWorld.admissions {
					t.Fatalf("op %#x at %d: attempts/admissions diverged: reference %d/%d, indexed %d/%d",
						op, pos, refAttempts, refWorld.admissions, idxAttempts, idxWorld.admissions)
				}
			}
			got := idx.contents()
			if len(got) != len(ref.waiting) {
				t.Fatalf("op %#x at %d: queue depth diverged: reference %d, indexed %d", op, pos, len(ref.waiting), len(got))
			}
			for i := range got {
				if got[i] != ref.waiting[i] {
					t.Fatalf("op %#x at %d: queue entry %d diverged: reference %+v, indexed %+v", op, pos, i, ref.waiting[i], got[i])
				}
			}
			checkParkInvariants(t, &idx.px)
		}
	})
}
