package cluster

import (
	"strings"
	"testing"
)

func mustCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// acquire resolves the function's dense index and acquires through it,
// the way the serving plane does once per run; an undeployed name
// resolves to -1, which Acquire rejects.
func acquire(c *Cluster, function string, millicores int) (*Pod, bool, error) {
	fn, _ := c.Index(function)
	return c.Acquire(fn, millicores)
}

func small(t *testing.T) *Cluster {
	c := mustCluster(t, Config{Nodes: 1, NodeMillicores: 10000, PoolSize: 2, IdleMillicores: 100})
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		errHas string
	}{
		{"no nodes", Config{Nodes: 0, NodeMillicores: 1000}, "Nodes"},
		{"no cores", Config{Nodes: 1, NodeMillicores: 0}, "NodeMillicores"},
		{"negative pool", Config{Nodes: 1, NodeMillicores: 1000, PoolSize: -1}, "PoolSize"},
		{"negative idle", Config{Nodes: 1, NodeMillicores: 1000, IdleMillicores: -1}, "IdleMillicores"},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.errHas)
		}
	}
}

func TestDeployPreWarms(t *testing.T) {
	c := small(t)
	if got := c.WarmPods("f"); got != 2 {
		t.Fatalf("WarmPods = %d, want 2", got)
	}
	if got := c.NodeAllocated(0); got != 200 {
		t.Fatalf("idle allocation = %d, want 200", got)
	}
	if !c.Deployed("f") || c.Deployed("g") {
		t.Fatal("Deployed() wrong")
	}
}

func TestDeployValidation(t *testing.T) {
	c := small(t)
	if err := c.Deploy(""); err == nil {
		t.Fatal("empty function name accepted")
	}
	if err := c.Deploy("f"); err == nil {
		t.Fatal("double deploy accepted")
	}
}

func TestAcquireWarmThenCold(t *testing.T) {
	c := small(t)
	p1, cold, err := acquire(c, "f", 1000)
	if err != nil || cold {
		t.Fatalf("first acquire: cold=%v err=%v, want warm", cold, err)
	}
	if p1.Millicores() != 1000 || !p1.Busy() {
		t.Fatalf("pod state = %d mc busy=%v", p1.Millicores(), p1.Busy())
	}
	if _, cold, err = acquire(c, "f", 1000); err != nil || cold {
		t.Fatalf("second acquire should still be warm: cold=%v err=%v", cold, err)
	}
	if _, cold, err = acquire(c, "f", 1000); err != nil || !cold {
		t.Fatalf("third acquire should be cold: cold=%v err=%v", cold, err)
	}
}

func TestAcquireErrors(t *testing.T) {
	c := small(t)
	if _, _, err := acquire(c, "g", 1000); err == nil {
		t.Fatal("acquire of undeployed function accepted")
	}
	if _, _, err := acquire(c, "f", 0); err == nil {
		t.Fatal("acquire with zero millicores accepted")
	}
}

func TestAcquireCapacityExhaustion(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 1, NodeMillicores: 2500, PoolSize: 1, IdleMillicores: 100})
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := acquire(c, "f", 2000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := acquire(c, "f", 2000); err == nil {
		t.Fatal("over-capacity acquire accepted")
	}
	// A warm pod that cannot be resized stays in the pool.
	c2 := mustCluster(t, Config{Nodes: 1, NodeMillicores: 500, PoolSize: 1, IdleMillicores: 100})
	if err := c2.Deploy("g"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := acquire(c2, "g", 1000); err == nil {
		t.Fatal("resize beyond node capacity accepted")
	}
	if c2.WarmPods("g") != 1 {
		t.Fatal("failed acquire leaked the warm pod")
	}
}

func TestReleaseReturnsToPool(t *testing.T) {
	c := small(t)
	p, _, err := acquire(c, "f", 3000)
	if err != nil {
		t.Fatal(err)
	}
	before := c.NodeAllocated(0)
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
	if c.WarmPods("f") != 2 {
		t.Fatalf("WarmPods = %d, want 2", c.WarmPods("f"))
	}
	if p.Busy() {
		t.Fatal("released pod still busy")
	}
	if got := c.NodeAllocated(0); got >= before {
		t.Fatalf("release did not shrink allocation: %d -> %d", before, got)
	}
}

func TestReleaseTrimsBeyondPoolSize(t *testing.T) {
	c := small(t)
	// Drain the pool and cold-start one extra.
	var pods []*Pod
	for i := 0; i < 3; i++ {
		p, _, err := acquire(c, "f", 500)
		if err != nil {
			t.Fatal(err)
		}
		pods = append(pods, p)
	}
	for _, p := range pods {
		if err := c.Release(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.WarmPods("f"); got != 2 {
		t.Fatalf("pool grew beyond PoolSize: %d", got)
	}
	// All remaining allocation is idle pods only.
	if got := c.NodeAllocated(0); got != 200 {
		t.Fatalf("allocation after trim = %d, want 200", got)
	}
}

func TestReleaseIdlePodFails(t *testing.T) {
	c := small(t)
	p, _, err := acquire(c, "f", 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(p); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestResizeAccounting(t *testing.T) {
	c := small(t)
	p, _, err := acquire(c, "f", 1000)
	if err != nil {
		t.Fatal(err)
	}
	base := c.NodeAllocated(0)
	if err := c.Resize(p, 2500); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeAllocated(0); got != base+1500 {
		t.Fatalf("allocation after grow = %d, want %d", got, base+1500)
	}
	if err := c.Resize(p, 500); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeAllocated(0); got != base-500 {
		t.Fatalf("allocation after shrink = %d, want %d", got, base-500)
	}
	if err := c.Resize(p, 0); err == nil {
		t.Fatal("resize to zero accepted")
	}
	if err := c.Resize(p, 100000); err == nil {
		t.Fatal("resize beyond capacity accepted")
	}
}

func TestBusyPodsCountsBusySameFunction(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 2, NodeMillicores: 20000, PoolSize: 3, IdleMillicores: 100})
	for _, f := range []string{"f", "g"} {
		if err := c.Deploy(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.BusyPods("f"); got != 0 {
		t.Fatalf("BusyPods(f) with only warm pods = %d, want 0", got)
	}
	var f2 *Pod
	for _, fn := range []string{"f", "f", "g"} {
		p, _, err := acquire(c, fn, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if fn == "f" {
			f2 = p
		}
	}
	if got := c.BusyPods("f"); got != 2 {
		t.Fatalf("BusyPods(f) = %d, want 2", got)
	}
	if got := c.BusyPods("g"); got != 1 {
		t.Fatalf("BusyPods(g) = %d, want 1", got)
	}
	if err := c.Release(f2); err != nil {
		t.Fatal(err)
	}
	if got := c.BusyPods("f"); got != 1 {
		t.Fatalf("BusyPods(f) after release = %d, want 1", got)
	}
	if got := c.BusyPods("h"); got != 0 {
		t.Fatalf("BusyPods of an undeployed function = %d, want 0", got)
	}
}

func TestMultiNodeSpreads(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 2, NodeMillicores: 5000, PoolSize: 0, IdleMillicores: 100})
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	p1, cold, err := acquire(c, "f", 3000)
	if err != nil || !cold {
		t.Fatalf("expected cold start, got cold=%v err=%v", cold, err)
	}
	p2, _, err := acquire(c, "f", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NodeID == p2.NodeID {
		t.Fatal("pods not spread across nodes")
	}
	// Combined capacity exists but no single node fits 4000 more.
	if _, _, err := acquire(c, "f", 4000); err == nil {
		t.Fatal("fragmented capacity should not satisfy a 4000mc pod")
	}
}

func TestFirstFitPacksLowNodes(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 3, NodeMillicores: 5000, PoolSize: 0, IdleMillicores: 100, Placement: PlacementFirstFit})
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	p1, _, err := acquire(c, "f", 2000)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := acquire(c, "f", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NodeID != 0 || p2.NodeID != 0 {
		t.Fatalf("first-fit should pack node 0, got nodes %d and %d", p1.NodeID, p2.NodeID)
	}
	// Node 0 has 1000 free: a 2000mc pod overflows to node 1.
	p3, _, err := acquire(c, "f", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if p3.NodeID != 1 {
		t.Fatalf("overflow pod on node %d, want 1", p3.NodeID)
	}
}

func TestPlacementValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1, NodeMillicores: 1000, Placement: Placement(7)}); err == nil ||
		!strings.Contains(err.Error(), "placement") {
		t.Fatalf("unknown placement accepted: %v", err)
	}
	if PlacementSpread.String() != "spread" || PlacementFirstFit.String() != "first-fit" {
		t.Fatalf("policy names = %q, %q", PlacementSpread, PlacementFirstFit)
	}
}

func TestNodeOccupancyAccounting(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 2, NodeMillicores: 5000, PoolSize: 1, IdleMillicores: 100})
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 2 {
		t.Fatalf("Nodes() = %d, want 2", c.Nodes())
	}
	// The single warm pod idles on one node.
	if got := c.NodePods(0) + c.NodePods(1); got != 1 {
		t.Fatalf("NodePods sum to %d, want the one warm pod", got)
	}
	p, _, err := acquire(c, "f", 3000)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NodeID
	if got := c.NodePods(n); got != 1 {
		t.Fatalf("NodePods(%d) = %d, want 1", n, got)
	}
	if got := c.NodeFree(n); got != c.NodeCapacity(n)-c.NodeAllocated(n) {
		t.Fatalf("NodeFree(%d) = %d, inconsistent with capacity %d - allocated %d",
			n, got, c.NodeCapacity(n), c.NodeAllocated(n))
	}
}

func TestFunctionsSorted(t *testing.T) {
	c := mustCluster(t, DefaultConfig())
	for _, f := range []string{"zeta", "alpha", "mid"} {
		if err := c.Deploy(f); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Functions()
	if len(got) != 3 || got[0] != "alpha" || got[2] != "zeta" {
		t.Fatalf("Functions() = %v", got)
	}
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NodeMillicores != 52000 {
		t.Errorf("platform server should model 52 cores, got %d millicores", cfg.NodeMillicores)
	}
	if cfg.PoolSize == 0 {
		t.Error("pool manager should pre-warm pods (the paper picks PoolManager to avoid cold starts)")
	}
}

func TestPoolTargetDefaultsToConfig(t *testing.T) {
	c := small(t)
	tgt, err := c.PoolTarget("f")
	if err != nil || tgt != 2 {
		t.Fatalf("PoolTarget = %d, %v; want config PoolSize 2", tgt, err)
	}
	if _, err := c.PoolTarget("g"); err == nil {
		t.Fatal("PoolTarget for undeployed function accepted")
	}
}

func TestSetPoolTargetGovernsReleaseTrimming(t *testing.T) {
	c := small(t)
	if err := c.SetPoolTarget("f", 0); err != nil {
		t.Fatal(err)
	}
	// Shed the two pre-warmed idle pods, then check a released pod is
	// destroyed rather than pooled: target 0 means no warm pods survive.
	if err := c.RemoveWarmPod("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveWarmPod("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveWarmPod("f"); err == nil {
		t.Fatal("removed a warm pod from an empty pool")
	}
	pod, cold, err := acquire(c, "f", 1000)
	if err != nil || !cold {
		t.Fatalf("Acquire after shedding = cold %t, %v", cold, err)
	}
	if err := c.Release(pod); err != nil {
		t.Fatal(err)
	}
	if got := c.WarmPods("f"); got != 0 {
		t.Fatalf("released pod pooled despite target 0 (warm %d)", got)
	}
	if got := c.TotalPods(); got != 0 {
		t.Fatalf("TotalPods = %d, want 0", got)
	}
	// Raising the target lets Release refill the pool again.
	if err := c.SetPoolTarget("f", 1); err != nil {
		t.Fatal(err)
	}
	pod, _, err = acquire(c, "f", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(pod); err != nil {
		t.Fatal(err)
	}
	if got := c.WarmPods("f"); got != 1 {
		t.Fatalf("warm pods after refill = %d, want 1", got)
	}
}

func TestSetPoolTargetValidation(t *testing.T) {
	c := small(t)
	if err := c.SetPoolTarget("g", 1); err == nil {
		t.Fatal("target for undeployed function accepted")
	}
	if err := c.SetPoolTarget("f", -1); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestAddWarmPodBuildsAndAccounts(t *testing.T) {
	c := small(t)
	pod, err := c.AddWarmPod("f")
	if err != nil {
		t.Fatal(err)
	}
	if pod.Busy() {
		t.Fatal("scale-up pod born busy")
	}
	if got := c.WarmPods("f"); got != 3 {
		t.Fatalf("warm pods after AddWarmPod = %d, want 3", got)
	}
	grown, shrunk := c.PoolChurn()
	if grown != 1 || shrunk != 0 {
		t.Fatalf("churn after grow = %d/%d, want 1/0", grown, shrunk)
	}
	if err := c.RemoveWarmPod("f"); err != nil {
		t.Fatal(err)
	}
	grown, shrunk = c.PoolChurn()
	if grown != 1 || shrunk != 1 {
		t.Fatalf("churn after shrink = %d/%d, want 1/1", grown, shrunk)
	}
	if _, err := c.AddWarmPod("g"); err == nil {
		t.Fatal("AddWarmPod for undeployed function accepted")
	}
	if err := c.RemoveWarmPod("g"); err == nil {
		t.Fatal("RemoveWarmPod for undeployed function accepted")
	}
}

func TestAddWarmPodCapacityExhaustion(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 1, NodeMillicores: 1000, PoolSize: 0, IdleMillicores: 400})
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddWarmPod("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddWarmPod("f"); err != nil {
		t.Fatal(err)
	}
	// 800 of 1000 millicores reserved by idle pods: a third does not fit.
	if _, err := c.AddWarmPod("f"); err == nil {
		t.Fatal("scale-up landed beyond node capacity")
	}
	grown, _ := c.PoolChurn()
	if grown != 2 {
		t.Fatalf("failed grow counted as churn (grown %d)", grown)
	}
}

func TestTotalPodsCountsIdleAndBusy(t *testing.T) {
	c := small(t)
	if got := c.TotalPods(); got != 2 {
		t.Fatalf("TotalPods = %d, want the 2 pre-warmed", got)
	}
	pod, _, err := acquire(c, "f", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TotalPods(); got != 2 {
		t.Fatalf("TotalPods after warm acquire = %d, want 2", got)
	}
	_ = pod
}

// TestGenTracksThresholdMutations pins the contract the serving plane's
// park index caches against: Gen moves whenever an allocation mutation
// may have moved some function's AcquireThreshold, and holds still
// across failed Acquires, which mutate nothing.
func TestGenTracksThresholdMutations(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 1, NodeMillicores: 2500, PoolSize: 1, IdleMillicores: 100})
	g0 := c.Gen()
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	g1 := c.Gen()
	if g1 <= g0 {
		t.Fatalf("Deploy left Gen at %d; pre-warming moves the threshold from 0", g1)
	}
	p, _, err := acquire(c, "f", 2000)
	if err != nil {
		t.Fatal(err)
	}
	g2 := c.Gen()
	if g2 <= g1 {
		t.Fatalf("successful Acquire left Gen at %d (was %d)", g2, g1)
	}
	if _, _, err := acquire(c, "f", 2000); err == nil {
		t.Fatal("over-capacity acquire accepted")
	}
	if got := c.Gen(); got != g2 {
		t.Fatalf("failed Acquire moved Gen %d -> %d; cached thresholds would be invalidated for nothing", g2, got)
	}
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
	if got := c.Gen(); got <= g2 {
		t.Fatalf("Release left Gen at %d (was %d)", got, g2)
	}
}

// TestResizeRejectsDestroyedPod resizes a pod its release destroyed (pool
// size 0): the cluster no longer hosts it, so the resize must fail and
// leave the node's accounting alone instead of charging millicores to a
// node that holds no pods.
func TestResizeRejectsDestroyedPod(t *testing.T) {
	c := mustCluster(t, Config{Nodes: 1, NodeMillicores: 10000, PoolSize: 0, IdleMillicores: 100})
	if err := c.Deploy("f"); err != nil {
		t.Fatal(err)
	}
	p, _, err := acquire(c, "f", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(p); err != nil {
		t.Fatal(err)
	}
	if c.NodePods(0) != 0 {
		t.Fatalf("release into a zero-target pool left %d pods", c.NodePods(0))
	}
	if err := c.Resize(p, 5000); err == nil {
		t.Fatal("Resize of a destroyed pod accepted")
	}
	f, _ := c.Index("f")
	if got, thr := c.NodeAllocated(0), c.AcquireThreshold(f); got != 0 || thr != 10000 {
		t.Fatalf("after the rejected resize: allocated %d, threshold %d; want 0 and 10000", got, thr)
	}
}
