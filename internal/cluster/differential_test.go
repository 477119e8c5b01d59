package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file locks the indexed cluster to the semantics of the original
// scan-based implementation. refCluster below re-implements the substrate
// the slow way — linear scans for placement and every count, no derived
// state — and TestClusterIndexedMatchesReference drives both through long
// seeded random op sequences, asserting identical outputs (placements,
// cold flags, errors, counts) at every step. Any divergence in the
// index maintenance or the segment tree's tie-breaking shows up as a
// mismatch with the op trace that produced it.

// refPod mirrors Pod for the reference implementation.
type refPod struct {
	id         int
	function   string
	nodeID     int
	millicores int
	busy       bool
}

type refNode struct {
	id        int
	capacity  int
	allocated int
	pods      map[int]*refPod
}

// refCluster is the pre-index implementation: every query recomputes from
// the pod maps, and placement is the original left-to-right scan.
type refCluster struct {
	cfg     Config
	nodes   []*refNode
	nextID  int
	pools   map[string][]*refPod
	targets map[string]int
	grown   int
	shrunk  int
}

func newRefCluster(cfg Config) *refCluster {
	c := &refCluster{cfg: cfg, pools: make(map[string][]*refPod), targets: make(map[string]int)}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &refNode{id: i, capacity: cfg.NodeMillicores, pods: make(map[int]*refPod)})
	}
	return c
}

func (c *refCluster) pickNode(millicores int) *refNode {
	var best *refNode
	for _, n := range c.nodes {
		free := n.capacity - n.allocated
		if free < millicores {
			continue
		}
		if c.cfg.Placement == PlacementFirstFit {
			return n
		}
		if best == nil || free > best.capacity-best.allocated {
			best = n
		}
	}
	return best
}

func (c *refCluster) createPod(function string, millicores int) (*refPod, error) {
	n := c.pickNode(millicores)
	if n == nil {
		return nil, fmt.Errorf("no node fits")
	}
	c.nextID++
	pod := &refPod{id: c.nextID, function: function, nodeID: n.id, millicores: millicores}
	n.pods[pod.id] = pod
	n.allocated += millicores
	return pod, nil
}

func (c *refCluster) deploy(function string) error {
	if _, ok := c.pools[function]; ok {
		return fmt.Errorf("already deployed")
	}
	c.pools[function] = nil
	c.targets[function] = c.cfg.PoolSize
	for i := 0; i < c.cfg.PoolSize; i++ {
		pod, err := c.createPod(function, c.cfg.IdleMillicores)
		if err != nil {
			return err
		}
		c.pools[function] = append(c.pools[function], pod)
	}
	return nil
}

func (c *refCluster) acquire(function string, millicores int) (*refPod, bool, error) {
	pool, ok := c.pools[function]
	if !ok {
		return nil, false, fmt.Errorf("not deployed")
	}
	if len(pool) > 0 {
		pod := pool[len(pool)-1]
		c.pools[function] = pool[:len(pool)-1]
		if err := c.resize(pod, millicores); err != nil {
			c.pools[function] = append(c.pools[function], pod)
			return nil, false, err
		}
		pod.busy = true
		return pod, false, nil
	}
	pod, err := c.createPod(function, millicores)
	if err != nil {
		return nil, false, err
	}
	pod.busy = true
	return pod, true, nil
}

func (c *refCluster) resize(pod *refPod, millicores int) error {
	n := c.nodes[pod.nodeID]
	delta := millicores - pod.millicores
	if n.allocated+delta > n.capacity {
		return fmt.Errorf("does not fit")
	}
	n.allocated += delta
	pod.millicores = millicores
	return nil
}

func (c *refCluster) release(pod *refPod) error {
	if !pod.busy {
		return fmt.Errorf("idle release")
	}
	pod.busy = false
	if len(c.pools[pod.function]) >= c.targets[pod.function] {
		n := c.nodes[pod.nodeID]
		n.allocated -= pod.millicores
		delete(n.pods, pod.id)
		return nil
	}
	if err := c.resize(pod, max(c.cfg.IdleMillicores, 1)); err != nil {
		return err
	}
	c.pools[pod.function] = append(c.pools[pod.function], pod)
	return nil
}

func (c *refCluster) setPoolTarget(function string, target int) error {
	if _, ok := c.pools[function]; !ok {
		return fmt.Errorf("not deployed")
	}
	c.targets[function] = target
	return nil
}

func (c *refCluster) addWarmPod(function string) (*refPod, error) {
	if _, ok := c.pools[function]; !ok {
		return nil, fmt.Errorf("not deployed")
	}
	pod, err := c.createPod(function, max(c.cfg.IdleMillicores, 1))
	if err != nil {
		return nil, err
	}
	c.pools[function] = append(c.pools[function], pod)
	c.grown++
	return pod, nil
}

func (c *refCluster) removeWarmPod(function string) error {
	pool, ok := c.pools[function]
	if !ok {
		return fmt.Errorf("not deployed")
	}
	if len(pool) == 0 {
		return fmt.Errorf("empty pool")
	}
	pod := pool[len(pool)-1]
	c.pools[function] = pool[:len(pool)-1]
	n := c.nodes[pod.nodeID]
	n.allocated -= pod.millicores
	delete(n.pods, pod.id)
	c.shrunk++
	return nil
}

func (c *refCluster) busyPods(function string) int {
	count := 0
	for _, n := range c.nodes {
		for _, p := range n.pods {
			if p.function == function && p.busy {
				count++
			}
		}
	}
	return count
}

func (c *refCluster) totalPods() int {
	total := 0
	for _, n := range c.nodes {
		total += len(n.pods)
	}
	return total
}

// podPair tracks one live pod in both implementations.
type podPair struct {
	got *Pod
	ref *refPod
}

// diffDriver drives the indexed and reference clusters through the same
// op and fails on the first divergence.
type diffDriver struct {
	t    *testing.T
	got  *Cluster
	ref  *refCluster
	fns  []string
	busy []podPair
	step int
}

func (d *diffDriver) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d: %s", d.step, fmt.Sprintf(format, args...))
}

// checkErrs asserts both implementations agreed on success/failure.
func (d *diffDriver) checkErrs(op string, gotErr, refErr error) bool {
	d.t.Helper()
	if (gotErr == nil) != (refErr == nil) {
		d.fatalf("%s diverged: indexed err=%v, reference err=%v", op, gotErr, refErr)
	}
	return gotErr == nil
}

// checkState compares every observable count after an op.
func (d *diffDriver) checkState() {
	d.t.Helper()
	if g, r := d.got.TotalPods(), d.ref.totalPods(); g != r {
		d.fatalf("TotalPods: indexed %d, reference %d", g, r)
	}
	for n := 0; n < d.got.Nodes(); n++ {
		if g, r := d.got.NodeAllocated(n), d.ref.nodes[n].allocated; g != r {
			d.fatalf("NodeAllocated(%d): indexed %d, reference %d", n, g, r)
		}
		if g, r := d.got.NodePods(n), len(d.ref.nodes[n].pods); g != r {
			d.fatalf("NodePods(%d): indexed %d, reference %d", n, g, r)
		}
	}
	for _, fn := range d.fns {
		if !d.got.Deployed(fn) {
			continue
		}
		if g, r := d.got.WarmPods(fn), len(d.ref.pools[fn]); g != r {
			d.fatalf("WarmPods(%s): indexed %d, reference %d", fn, g, r)
		}
		if g, r := d.got.BusyPods(fn), d.ref.busyPods(fn); g != r {
			d.fatalf("BusyPods(%s): indexed %d, reference %d", fn, g, r)
		}
		// AcquireThreshold must be exact — the serving plane skips parked
		// retries on its word: acquire succeeds iff mc <= threshold.
		refThr := 0
		if pool := d.ref.pools[fn]; len(pool) > 0 {
			pod := pool[len(pool)-1]
			n := d.ref.nodes[pod.nodeID]
			refThr = n.capacity - n.allocated + pod.millicores
		} else {
			for _, n := range d.ref.nodes {
				if free := n.capacity - n.allocated; free > refThr {
					refThr = free
				}
			}
		}
		fi, _ := d.got.Index(fn)
		if g := d.got.AcquireThreshold(fi); g != refThr {
			d.fatalf("AcquireThreshold(%s): indexed %d, reference %d", fn, g, refThr)
		}
	}
	g1, s1 := d.got.PoolChurn()
	if g1 != d.ref.grown || s1 != d.ref.shrunk {
		d.fatalf("PoolChurn: indexed (%d, %d), reference (%d, %d)", g1, s1, d.ref.grown, d.ref.shrunk)
	}
}

// op applies one random operation to both implementations and compares
// the direct outputs (pod identity, node placement, cold flag, error).
func (d *diffDriver) op(r *rand.Rand) {
	fn := d.fns[r.Intn(len(d.fns))]
	switch r.Intn(12) {
	case 0: // Deploy (no-op once all functions exist)
		if !d.got.Deployed(fn) {
			ge := d.got.Deploy(fn)
			re := d.ref.deploy(fn)
			d.checkErrs("Deploy", ge, re)
		}
	case 1, 2, 3, 4: // Acquire
		if !d.got.Deployed(fn) {
			return
		}
		mc := 100 + r.Intn(40)*100
		gp, gcold, ge := acquire(d.got, fn, mc)
		rp, rcold, re := d.ref.acquire(fn, mc)
		if !d.checkErrs("Acquire", ge, re) {
			return
		}
		if gp.ID != rp.id || gp.NodeID != rp.nodeID || gcold != rcold || gp.Millicores() != rp.millicores {
			d.fatalf("Acquire(%s, %d) diverged: indexed pod %d node %d cold %v mc %d, reference pod %d node %d cold %v mc %d",
				fn, mc, gp.ID, gp.NodeID, gcold, gp.Millicores(), rp.id, rp.nodeID, rcold, rp.millicores)
		}
		d.busy = append(d.busy, podPair{got: gp, ref: rp})
	case 5, 6, 7: // Release
		if len(d.busy) == 0 {
			return
		}
		i := r.Intn(len(d.busy))
		pair := d.busy[i]
		d.busy = append(d.busy[:i], d.busy[i+1:]...)
		d.checkErrs("Release", d.got.Release(pair.got), d.ref.release(pair.ref))
	case 8: // Resize a busy pod
		if len(d.busy) == 0 {
			return
		}
		pair := d.busy[r.Intn(len(d.busy))]
		mc := 100 + r.Intn(60)*100
		d.checkErrs("Resize", d.got.Resize(pair.got, mc), d.ref.resize(pair.ref, mc))
	case 9: // SetPoolTarget
		if !d.got.Deployed(fn) {
			return
		}
		tgt := r.Intn(6)
		d.checkErrs("SetPoolTarget", d.got.SetPoolTarget(fn, tgt), d.ref.setPoolTarget(fn, tgt))
	case 10: // AddWarmPod
		if !d.got.Deployed(fn) {
			return
		}
		gp, ge := d.got.AddWarmPod(fn)
		rp, re := d.ref.addWarmPod(fn)
		if d.checkErrs("AddWarmPod", ge, re) && (gp.ID != rp.id || gp.NodeID != rp.nodeID) {
			d.fatalf("AddWarmPod(%s) diverged: indexed pod %d node %d, reference pod %d node %d",
				fn, gp.ID, gp.NodeID, rp.id, rp.nodeID)
		}
	case 11: // RemoveWarmPod
		if !d.got.Deployed(fn) {
			return
		}
		d.checkErrs("RemoveWarmPod", d.got.RemoveWarmPod(fn), d.ref.removeWarmPod(fn))
	}
}

func (d *diffDriver) run(seed int64, steps int) {
	r := rand.New(rand.NewSource(seed))
	for d.step = 0; d.step < steps; d.step++ {
		d.op(r)
		d.checkState()
	}
}

func TestClusterIndexedMatchesReference(t *testing.T) {
	placements := []Placement{PlacementSpread, PlacementFirstFit}
	for _, placement := range placements {
		placement := placement
		t.Run(placement.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := Config{
					Nodes:          1 + int(seed)*3, // 4, 7, 10, 13 nodes
					NodeMillicores: 8000,
					PoolSize:       2,
					IdleMillicores: 100,
					Placement:      placement,
				}
				got := mustCluster(t, cfg)
				d := &diffDriver{
					t:   t,
					got: got,
					ref: newRefCluster(cfg),
					fns: []string{"fa", "fb", "fc", "fd", "fe"},
				}
				d.run(seed, 4000)
			}
		})
	}
}
