package cluster

import (
	"fmt"
	"testing"
)

// FuzzClusterInvariants decodes an arbitrary byte tape into a cluster op
// sequence and recounts every piece of derived state from first
// principles after each op. The differential test pins the indexed
// cluster to the reference semantics on random-but-well-formed op
// sequences; the fuzzer's job is the adversarial tail — op orders,
// interleavings, and error paths no generator was written to produce. CI
// runs the checked-in corpus as a fixed regression suite; `go test
// -fuzz FuzzClusterInvariants ./internal/cluster/` explores further.

// checkClusterInvariants recomputes all incrementally maintained state
// and compares it with the live counters and the free-capacity index.
// Pods are recounted from each node's pod slice, whose back-indexes must
// all point home.
func checkClusterInvariants(c *Cluster) error {
	totalPods := 0
	clusterBusy := make([]int, len(c.busyByFn))
	for _, n := range c.nodes {
		allocated := 0
		for i, p := range n.pods {
			if p.slot != i || p.NodeID != n.id {
				return fmt.Errorf("node %d: pod %d at position %d has back-index %d on node %d", n.id, p.ID, i, p.slot, p.NodeID)
			}
			allocated += p.millicores
			if p.busy {
				clusterBusy[p.fnIdx]++
			}
		}
		if allocated != n.allocated {
			return fmt.Errorf("node %d: allocated %d, pods sum to %d", n.id, n.allocated, allocated)
		}
		if got := c.free.tree[c.free.base+n.id]; got != n.capacity-n.allocated {
			return fmt.Errorf("node %d: free index holds %d, node has %d free", n.id, got, n.capacity-n.allocated)
		}
		totalPods += len(n.pods)
	}
	for i := range clusterBusy {
		if clusterBusy[i] != c.busyByFn[i] {
			return fmt.Errorf("cluster busyByFn[%d] = %d, recount %d", i, c.busyByFn[i], clusterBusy[i])
		}
	}
	if totalPods != c.totalPods {
		return fmt.Errorf("totalPods %d, recount %d", c.totalPods, totalPods)
	}
	// Every internal segment-tree entry must be the max of its children
	// (no stale path after an early-exit update), and padding leaves must
	// never be selectable.
	for i := 1; i < c.free.base; i++ {
		l, r := c.free.tree[2*i], c.free.tree[2*i+1]
		want := l
		if r > want {
			want = r
		}
		if c.free.tree[i] != want {
			return fmt.Errorf("free index entry %d = %d, children max %d", i, c.free.tree[i], want)
		}
	}
	for i := c.free.base + len(c.nodes); i < 2*c.free.base; i++ {
		if c.free.tree[i] != -1 {
			return fmt.Errorf("padding leaf %d = %d, want -1", i, c.free.tree[i])
		}
	}
	// Pools hold only idle pods that still exist on their recorded node,
	// and AcquireThreshold matches a first-principles recount (the serving
	// plane skips parked retries on its word).
	for fn, pool := range c.pools {
		for _, p := range pool {
			if p.busy {
				return fmt.Errorf("pool %s holds busy pod %d", c.names[fn], p.ID)
			}
			if p.fnIdx != fn || !c.hosts(p) {
				return fmt.Errorf("pool %s holds destroyed or foreign pod %d", c.names[fn], p.ID)
			}
		}
		thr := 0
		if len(pool) > 0 {
			p := pool[len(pool)-1]
			n := c.nodes[p.NodeID]
			thr = n.capacity - n.allocated + p.millicores
		} else {
			for _, n := range c.nodes {
				if free := n.capacity - n.allocated; free > thr {
					thr = free
				}
			}
		}
		if got := c.AcquireThreshold(fn); got != thr {
			return fmt.Errorf("AcquireThreshold(%s) = %d, recount %d", c.names[fn], got, thr)
		}
	}
	return nil
}

func FuzzClusterInvariants(f *testing.F) {
	// Seed corpus: op tapes covering deploys, busy churn, pool
	// retargeting, warm-pod scale-up/down, and error paths on both
	// placements (the first byte selects the configuration).
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Add([]byte{0x01, 0x10, 0x11, 0x12, 0x13, 0x30, 0x31, 0x32, 0x33, 0x50, 0x51})
	f.Add([]byte{0x07, 0x00, 0x10, 0x20, 0x10, 0x21, 0x30, 0x40, 0x41, 0x50, 0x60, 0x61})
	f.Add([]byte{0x03, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55,
		0x44, 0x33, 0x22, 0x11, 0x00, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde})
	f.Add([]byte{0x05, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10,
		0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30, 0x30})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		// The first byte picks the cluster shape; small nodes keep
		// capacity errors reachable.
		shape := tape[0]
		cfg := Config{
			Nodes:          1 + int(shape&0x03)*3,
			NodeMillicores: 4000,
			PoolSize:       int(shape >> 2 & 0x03),
			IdleMillicores: 100,
			Placement:      Placement(int(shape >> 4 & 0x01)),
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("config %+v rejected: %v", cfg, err)
		}
		fns := []string{"fa", "fb", "fc"}
		// released keeps every pod Release returned, pooled or destroyed,
		// so Resize also reaches pods the cluster no longer hosts.
		var busy, released []*Pod
		for pos := 1; pos+1 < len(tape); pos += 2 {
			op, arg := tape[pos], int(tape[pos+1])
			fn := fns[arg%len(fns)]
			switch op % 8 {
			case 0:
				// Deploy; duplicate deploys must error without mutating.
				_ = c.Deploy(fn)
			case 1, 2:
				fi, _ := c.Index(fn)
				if pod, _, err := c.Acquire(fi, 100+(arg%32)*100); err == nil {
					busy = append(busy, pod)
				}
			case 3:
				if len(busy) > 0 {
					i := arg % len(busy)
					pod := busy[i]
					busy = append(busy[:i], busy[i+1:]...)
					warmBefore := c.WarmPods(pod.Function)
					tgt, _ := c.PoolTarget(pod.Function)
					if err := c.Release(pod); err != nil {
						t.Fatalf("Release of busy pod %d failed: %v", pod.ID, err)
					}
					released = append(released, pod)
					// Release trims against the target: it never grows a
					// pool beyond it (a pool already over target — pushed
					// there by AddWarmPod — must not grow further).
					if w := c.WarmPods(pod.Function); w > warmBefore+1 || (w > warmBefore && warmBefore >= tgt) {
						t.Fatalf("Release grew pool %s from %d to %d with target %d", pod.Function, warmBefore, w, tgt)
					}
				}
			case 4:
				if k := len(busy) + len(released); k > 0 {
					var pod *Pod
					if i := arg % k; i < len(busy) {
						pod = busy[i]
					} else {
						pod = released[i-len(busy)]
					}
					hosted := c.hosts(pod)
					if err := c.Resize(pod, 100+(arg%40)*100); err == nil && !hosted {
						t.Fatalf("Resize of destroyed pod %d accepted", pod.ID)
					}
				}
			case 5:
				if c.Deployed(fn) {
					if err := c.SetPoolTarget(fn, arg%6); err != nil {
						t.Fatalf("SetPoolTarget(%s, %d) failed: %v", fn, arg%6, err)
					}
					// Release trims pools lazily; the target change alone
					// must not break any derived count.
				}
			case 6:
				if c.Deployed(fn) {
					_, _ = c.AddWarmPod(fn)
				}
			case 7:
				_ = c.RemoveWarmPod(fn)
			}
			if err := checkClusterInvariants(c); err != nil {
				t.Fatalf("after op %#x arg %#x at %d: %v", op, arg, pos, err)
			}
		}
	})
}
