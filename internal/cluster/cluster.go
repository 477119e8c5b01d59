// Package cluster simulates the serverless provider's execution substrate:
// a set of worker nodes (VMs) hosting function pods, in the style of
// Kubernetes with the Fission PoolManager executor the paper deploys on
// (§V-A). The pool manager keeps a pool of warm pods per function so that
// requests avoid cold starts; pods are specialized (a few milliseconds)
// when taken from the pool and cold-started (hundreds of milliseconds) when
// the pool is empty.
//
// The cluster owns millicore accounting per node. New pods land on nodes
// per a deterministic Placement policy (spread or first-fit), so where a
// pod runs — and therefore which allocations fit, which acquisitions park
// and which starts are cold — is a consequence of cluster state, not
// chance. Interference is not placement's to decide: each request carries
// its slowdown in its pre-sampled draws.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoCapacity reports a capacity miss: no node can host (Acquire's cold
// start) or grow into (Resize) the requested millicores right now. It is
// a shared sentinel rather than a formatted error because the serving
// plane parks and retries on it — at fleet scale the miss path runs
// millions of times per run, and error construction must not allocate.
var ErrNoCapacity = errors.New("cluster: insufficient free millicores")

// Placement selects the node a new pod lands on. Both policies are
// deterministic (ties break toward lower node IDs) so discrete-event runs
// replay byte for byte.
type Placement int

const (
	// PlacementSpread places each pod on the node with the most free
	// millicores — the Kubernetes LeastAllocated default — at the price of
	// fragmenting free capacity across nodes.
	PlacementSpread Placement = iota
	// PlacementFirstFit places each pod on the lowest-ID node that fits —
	// bin-packing-style consolidation that keeps whole nodes free for
	// large allocations.
	PlacementFirstFit
)

// String names the policy for experiment output.
func (p Placement) String() string {
	switch p {
	case PlacementSpread:
		return "spread"
	case PlacementFirstFit:
		return "first-fit"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// Config sizes the simulated cluster.
type Config struct {
	// Nodes is the number of worker nodes (VMs).
	Nodes int
	// NodeMillicores is each node's allocatable CPU (the paper's platform
	// server has 52 physical cores).
	NodeMillicores int
	// PoolSize is the number of warm pods kept per function per the pool
	// manager; 0 disables pre-warming.
	PoolSize int
	// IdleMillicores is the allocation a warm idle pod reserves.
	IdleMillicores int
	// Placement is the pod placement policy; the zero value is
	// PlacementSpread, the behavior single-node clusters degenerate to.
	Placement Placement
}

// DefaultConfig mirrors the paper's single 52-core platform server with a
// per-function warm pool of three pods.
func DefaultConfig() Config {
	return Config{Nodes: 1, NodeMillicores: 52000, PoolSize: 3, IdleMillicores: 100}
}

func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: Nodes must be positive, got %d", c.Nodes)
	}
	if c.NodeMillicores <= 0 {
		return fmt.Errorf("cluster: NodeMillicores must be positive, got %d", c.NodeMillicores)
	}
	if c.PoolSize < 0 {
		return fmt.Errorf("cluster: PoolSize must be >= 0, got %d", c.PoolSize)
	}
	if c.IdleMillicores < 0 {
		return fmt.Errorf("cluster: IdleMillicores must be >= 0, got %d", c.IdleMillicores)
	}
	if c.Placement != PlacementSpread && c.Placement != PlacementFirstFit {
		return fmt.Errorf("cluster: unknown placement policy %d", int(c.Placement))
	}
	return nil
}

// Pod is a function instance. Pods are created by the cluster; callers
// resize, acquire, and release them through cluster methods.
type Pod struct {
	// ID is unique across the cluster's lifetime.
	ID int
	// Function is the deployed function this pod is specialized for.
	Function string
	// NodeID is the hosting node.
	NodeID int

	millicores int
	busy       bool
	// fnIdx is the dense index Deploy assigned to Function, so pools,
	// targets and the busy counts are integer-indexed rather than keyed
	// by name on the hot path.
	fnIdx int
	// slot is the pod's position in its node's pod slice, or -1 once the
	// cluster destroyed it: the O(1) liveness check Resize and destroy
	// run, and the swap-remove index.
	slot int
}

// Millicores reports the pod's current CPU allocation.
func (p *Pod) Millicores() int { return p.millicores }

// Busy reports whether the pod is executing.
func (p *Pod) Busy() bool { return p.busy }

type node struct {
	id        int
	capacity  int
	allocated int
	// pods lists the hosted pods in no particular order; each pod's slot
	// is its position, so removal is a swap with the last entry.
	pods []*Pod
}

// Cluster tracks nodes, pods, and warm pools. It is not safe for concurrent
// use; the discrete-event executor drives it from a single goroutine.
type Cluster struct {
	cfg    Config
	nodes  []*node
	nextID int
	// pools holds each function's idle warm pods (LIFO for cache
	// warmth), indexed by the function's dense index.
	pools [][]*Pod
	// targets holds each function's warm-pool target depth, indexed by
	// the dense index. Deploy initializes every function to
	// Config.PoolSize; SetPoolTarget lets an elastic controller resize
	// pools per function mid-run.
	targets []int
	// grown/shrunk count pool-churn pods: warm pods built by scale-up
	// (each paying a cold start before it is usable) and idle pods
	// destroyed by scale-down.
	grown, shrunk int

	// The indexed state below is derived from nodes/pods and maintained
	// incrementally at every mutation, so count and placement reads cost
	// O(1) (O(log nodes) for placement) regardless of fleet size.
	//
	// fnIdx assigns each deployed function a dense integer in deployment
	// order (Index); names inverts it, and fnSorted lists the names in
	// sorted order for Functions().
	fnIdx    map[string]int
	names    []string
	fnSorted []string
	// free indexes per-node free millicores for pickNode.
	free *freeIndex
	// totalPods and busyByFn are cluster-wide running totals: all hosted
	// pods, and executing pods per dense function index.
	totalPods int
	busyByFn  []int
	// gen counts the mutations that can move any function's
	// AcquireThreshold — allocation changes and pool-membership changes.
	// Callers caching thresholds (the serving plane's park-queue wake)
	// revalidate against it instead of recomputing per probe: an
	// unchanged generation proves every cached threshold still exact,
	// because a failed Acquire mutates nothing.
	gen uint64
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:   cfg,
		fnIdx: make(map[string]int),
		free:  newFreeIndex(cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &node{id: i, capacity: cfg.NodeMillicores})
		c.free.set(i, cfg.NodeMillicores)
	}
	return c, nil
}

// setAllocated is the single mutation point for a node's millicore
// accounting; it keeps the free-capacity index honest.
func (c *Cluster) setAllocated(n *node, delta int) {
	n.allocated += delta
	c.free.set(n.id, n.capacity-n.allocated)
	c.gen++
}

// setBusy is the single mutation point for a pod's busy bit; it keeps the
// cluster-wide busy counts honest.
func (c *Cluster) setBusy(pod *Pod, busy bool) {
	if pod.busy == busy {
		return
	}
	pod.busy = busy
	if busy {
		c.busyByFn[pod.fnIdx]++
	} else {
		c.busyByFn[pod.fnIdx]--
	}
}

// Deploy pre-warms PoolSize pods for the function, spreading them across
// nodes with the most free capacity first. The function's dense index is
// the number of functions deployed before it.
func (c *Cluster) Deploy(function string) error {
	if function == "" {
		return fmt.Errorf("cluster: Deploy requires a function name")
	}
	if _, ok := c.fnIdx[function]; ok {
		return fmt.Errorf("cluster: %s already deployed", function)
	}
	fn := len(c.names)
	c.fnIdx[function] = fn
	c.names = append(c.names, function)
	c.pools = append(c.pools, nil)
	c.targets = append(c.targets, c.cfg.PoolSize)
	c.gen++ // the function's threshold moves from 0 to the free max
	c.busyByFn = append(c.busyByFn, 0)
	at := sort.SearchStrings(c.fnSorted, function)
	c.fnSorted = append(c.fnSorted, "")
	copy(c.fnSorted[at+1:], c.fnSorted[at:])
	c.fnSorted[at] = function
	for i := 0; i < c.cfg.PoolSize; i++ {
		pod, err := c.createPod(fn, c.cfg.IdleMillicores)
		if err != nil {
			return fmt.Errorf("cluster: pre-warming %s: %w", function, err)
		}
		c.pools[fn] = append(c.pools[fn], pod)
	}
	return nil
}

// Deployed reports whether the function has a pool.
func (c *Cluster) Deployed(function string) bool {
	_, ok := c.fnIdx[function]
	return ok
}

// Index returns the function's dense index — the key Acquire and
// AcquireThreshold take, so callers resolve a name once per run instead
// of once per acquisition — or -1 and false when it is not deployed.
func (c *Cluster) Index(function string) (int, bool) {
	fn, ok := c.fnIdx[function]
	if !ok {
		return -1, false
	}
	return fn, true
}

func (c *Cluster) createPod(fn, millicores int) (*Pod, error) {
	n := c.pickNode(millicores)
	if n == nil {
		return nil, ErrNoCapacity
	}
	c.nextID++
	pod := &Pod{ID: c.nextID, Function: c.names[fn], NodeID: n.id, millicores: millicores, fnIdx: fn, slot: len(n.pods)}
	n.pods = append(n.pods, pod)
	c.setAllocated(n, millicores)
	c.totalPods++
	return pod, nil
}

// hosts reports whether the pod is one of the cluster's live pods: a pod
// the cluster destroyed (or another cluster's pod) fails the back-index
// check.
func (c *Cluster) hosts(pod *Pod) bool {
	if pod.NodeID < 0 || pod.NodeID >= len(c.nodes) {
		return false
	}
	pods := c.nodes[pod.NodeID].pods
	return pod.slot >= 0 && pod.slot < len(pods) && pods[pod.slot] == pod
}

// pickNode returns the node the configured placement policy selects for a
// request, or nil when no node fits. Both policies prefer lower IDs on
// ties for determinism; the free-capacity index answers both queries in
// O(log nodes) with tie-breaking identical to the original left-to-right
// scan (see freeIndex).
func (c *Cluster) pickNode(millicores int) *node {
	var id int
	if c.cfg.Placement == PlacementFirstFit {
		id = c.free.firstFit(millicores)
	} else { // PlacementSpread
		id = c.free.spread(millicores)
	}
	if id < 0 {
		return nil
	}
	return c.nodes[id]
}

// Acquire takes a pod for one execution of the function with dense index
// fn (Index) at the given allocation. It returns the pod and whether the
// start was cold (no warm pod available). Resizing a warm pod is part of
// acquisition.
func (c *Cluster) Acquire(fn, millicores int) (*Pod, bool, error) {
	if fn < 0 || fn >= len(c.pools) {
		return nil, false, fmt.Errorf("cluster: no function deployed at index %d", fn)
	}
	if millicores <= 0 {
		return nil, false, fmt.Errorf("cluster: Acquire %s with non-positive millicores %d", c.names[fn], millicores)
	}
	pool := c.pools[fn]
	if len(pool) > 0 {
		pod := pool[len(pool)-1]
		// Peek before popping: when the pod's node cannot grow it to the
		// requested size, the pod stays warm and nothing changes (this is
		// the path every parked acquisition retries on every release
		// during saturation); otherwise the resize below cannot fail.
		if n := c.nodes[pod.NodeID]; n.allocated+millicores-pod.millicores > n.capacity {
			return nil, false, ErrNoCapacity
		}
		c.pools[fn] = pool[:len(pool)-1]
		c.resize(pod, millicores)
		c.setBusy(pod, true)
		return pod, false, nil
	}
	pod, err := c.createPod(fn, millicores)
	if err != nil {
		return nil, false, err
	}
	c.setBusy(pod, true)
	return pod, true, nil
}

// AcquireThreshold reports the largest allocation Acquire(fn, ·) would
// currently succeed for — 0 when no function has index fn or nothing
// fits. Exact and O(1): a non-empty warm pool serves from its top pod, so
// the threshold is that pod's node headroom plus the pod's current
// allocation; an empty pool cold-starts wherever the free-capacity
// index's maximum allows. The serving plane's parked-acquisition scan
// uses it to skip certain-failure retries without paying the attempt.
func (c *Cluster) AcquireThreshold(fn int) int {
	if fn < 0 || fn >= len(c.pools) {
		return 0
	}
	if pool := c.pools[fn]; len(pool) > 0 {
		pod := pool[len(pool)-1]
		n := c.nodes[pod.NodeID]
		return n.capacity - n.allocated + pod.millicores
	}
	return c.free.max()
}

// Gen reports the cluster's mutation generation: it moves whenever any
// function's AcquireThreshold may have moved, and holds still otherwise
// (in particular across failed Acquires, which mutate nothing). Callers
// may cache AcquireThreshold results keyed by this value.
func (c *Cluster) Gen() uint64 { return c.gen }

// Resize changes a pod's allocation in place (the late-binding primitive:
// Janus resizes the next function's pod right before it runs). A pod the
// cluster does not host — one it already destroyed — is an error: its
// millicores would otherwise be charged to a node that no longer holds
// it.
func (c *Cluster) Resize(pod *Pod, millicores int) error {
	if millicores <= 0 {
		return fmt.Errorf("cluster: Resize to non-positive millicores %d", millicores)
	}
	if !c.hosts(pod) {
		return fmt.Errorf("cluster: Resize of pod %d, which the cluster does not host", pod.ID)
	}
	n := c.nodes[pod.NodeID]
	if n.allocated+millicores-pod.millicores > n.capacity {
		return ErrNoCapacity
	}
	c.resize(pod, millicores)
	return nil
}

// resize sets a hosted pod's allocation; the caller has checked that the
// node has room.
func (c *Cluster) resize(pod *Pod, millicores int) {
	c.setAllocated(c.nodes[pod.NodeID], millicores-pod.millicores)
	pod.millicores = millicores
}

// Release returns a pod to its function's warm pool, shrinking it to the
// idle allocation. Pools at or beyond the function's target depth (set by
// Deploy to Config.PoolSize, adjustable via SetPoolTarget) are trimmed by
// destroying the pod.
func (c *Cluster) Release(pod *Pod) error {
	if !pod.busy {
		return fmt.Errorf("cluster: Release of idle pod %d", pod.ID)
	}
	c.setBusy(pod, false)
	fn := pod.fnIdx
	if len(c.pools[fn]) >= c.targets[fn] {
		return c.destroy(pod)
	}
	if err := c.Resize(pod, max(c.cfg.IdleMillicores, 1)); err != nil {
		return err
	}
	c.pools[fn] = append(c.pools[fn], pod)
	return nil
}

func (c *Cluster) destroy(pod *Pod) error {
	if !c.hosts(pod) {
		return fmt.Errorf("cluster: destroying unknown pod %d", pod.ID)
	}
	n := c.nodes[pod.NodeID]
	c.setBusy(pod, false)
	c.setAllocated(n, -pod.millicores)
	last := n.pods[len(n.pods)-1]
	last.slot = pod.slot
	n.pods[pod.slot] = last
	n.pods[len(n.pods)-1] = nil
	n.pods = n.pods[:len(n.pods)-1]
	pod.slot = -1
	c.totalPods--
	return nil
}

// Nodes reports the number of worker nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// NodeAllocated reports a node's allocated millicores.
func (c *Cluster) NodeAllocated(nodeID int) int {
	return c.nodes[nodeID].allocated
}

// NodeCapacity reports a node's total millicores.
func (c *Cluster) NodeCapacity(nodeID int) int {
	return c.nodes[nodeID].capacity
}

// NodeFree reports a node's unallocated millicores — what the placement
// policies compare.
func (c *Cluster) NodeFree(nodeID int) int {
	n := c.nodes[nodeID]
	return n.capacity - n.allocated
}

// NodePods reports how many pods (idle and busy) a node hosts.
func (c *Cluster) NodePods(nodeID int) int {
	return len(c.nodes[nodeID].pods)
}

// BusyPods reports how many of the function's pods are executing across
// the cluster, maintained incrementally so per-tick telemetry does not
// scan the fleet. Undeployed functions have no pods, so their count is
// zero.
func (c *Cluster) BusyPods(function string) int {
	idx, ok := c.fnIdx[function]
	if !ok {
		return 0
	}
	return c.busyByFn[idx]
}

// WarmPods reports the number of idle warm pods for the function.
func (c *Cluster) WarmPods(function string) int {
	fn, ok := c.fnIdx[function]
	if !ok {
		return 0
	}
	return len(c.pools[fn])
}

// TotalPods reports the number of pods (idle and busy) across all nodes —
// the live footprint pod-seconds accounting integrates every tick.
func (c *Cluster) TotalPods() int {
	return c.totalPods
}

// PoolTarget reports the function's warm-pool target depth.
func (c *Cluster) PoolTarget(function string) (int, error) {
	fn, ok := c.fnIdx[function]
	if !ok {
		return 0, fmt.Errorf("cluster: %s not deployed", function)
	}
	return c.targets[fn], nil
}

// SetPoolTarget changes the function's warm-pool target depth — the
// elastic-scaling primitive. Lowering the target takes effect lazily:
// Release trims returning pods down to it (surplus idle pods are shed
// with RemoveWarmPod). Raising it does not conjure warm pods: each new
// pod must be built with AddWarmPod after paying a cold start, which is
// the honest scale-up cost an autoscaler owes.
func (c *Cluster) SetPoolTarget(function string, target int) error {
	fn, ok := c.fnIdx[function]
	if !ok {
		return fmt.Errorf("cluster: %s not deployed", function)
	}
	if target < 0 {
		return fmt.Errorf("cluster: pool target for %s must be >= 0, got %d", function, target)
	}
	c.targets[fn] = target
	return nil
}

// AddWarmPod builds one idle warm pod for the function (scale-up landing
// after its cold-start delay) and counts it as pool churn. It fails when
// no node has the idle allocation free — the controller's growth simply
// does not land on a full cluster.
func (c *Cluster) AddWarmPod(function string) (*Pod, error) {
	fn, ok := c.fnIdx[function]
	if !ok {
		return nil, fmt.Errorf("cluster: %s not deployed", function)
	}
	pod, err := c.createPod(fn, max(c.cfg.IdleMillicores, 1))
	if err != nil {
		return nil, err
	}
	c.pools[fn] = append(c.pools[fn], pod)
	c.grown++
	return pod, nil
}

// RemoveWarmPod destroys one idle warm pod of the function (scale-down)
// and counts it as pool churn. It fails when the pool has no idle pod to
// shed; busy pods drain naturally — Release trims them against the
// lowered target.
func (c *Cluster) RemoveWarmPod(function string) error {
	fn, ok := c.fnIdx[function]
	if !ok {
		return fmt.Errorf("cluster: %s not deployed", function)
	}
	pool := c.pools[fn]
	if len(pool) == 0 {
		return fmt.Errorf("cluster: %s has no idle warm pod to remove", function)
	}
	pod := pool[len(pool)-1]
	c.pools[fn] = pool[:len(pool)-1]
	if err := c.destroy(pod); err != nil {
		return err
	}
	c.shrunk++
	return nil
}

// PoolChurn reports the pods built by scale-up and destroyed by
// scale-down across the cluster's lifetime (AddWarmPod / RemoveWarmPod;
// Deploy pre-warming and Release trimming are not churn).
func (c *Cluster) PoolChurn() (grown, shrunk int) {
	return c.grown, c.shrunk
}

// Functions lists deployed function names, sorted. The returned slice is
// the caller's to keep.
func (c *Cluster) Functions() []string {
	out := make([]string, len(c.fnSorted))
	copy(out, c.fnSorted)
	return out
}
