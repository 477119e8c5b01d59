package cluster

import (
	"fmt"
	"testing"
)

// The cluster microbenchmarks pin the serving plane's per-operation
// substrate costs at fleet scale: a 200-node cluster hosting hundreds of
// busy pods, the dimensions the fleet replay scenario drives. The
// BENCH_*.json files record their trajectory, and the bench-guard test
// (../../benchguard_test.go) fails CI when pickNode or the acquire/release
// cycle regress to per-call allocation.

const (
	benchNodes      = 200
	benchMillicores = 26000
)

// benchCluster builds a 200-node cluster with `fns` deployed functions
// and `busyPerFn` busy pods of each, spread by the placement policy. The
// pool size is zero so every acquire is a cold start through pickNode —
// under first-fit a warm pod can otherwise land on a node that later
// saturates, and resizing it out of idle would fail.
func benchCluster(b *testing.B, placement Placement, fns, busyPerFn int) *Cluster {
	b.Helper()
	c, err := New(Config{
		Nodes:          benchNodes,
		NodeMillicores: benchMillicores,
		PoolSize:       0,
		IdleMillicores: 100,
		Placement:      placement,
	})
	if err != nil {
		b.Fatal(err)
	}
	for f := 0; f < fns; f++ {
		name := fmt.Sprintf("f%d", f)
		if err := c.Deploy(name); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < busyPerFn; i++ {
			if _, _, err := acquire(c, name, 1000); err != nil {
				b.Fatal(err)
			}
		}
	}
	return c
}

func benchmarkPickNode(b *testing.B, placement Placement) {
	c := benchCluster(b, placement, 8, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := c.pickNode(2000); n == nil {
			b.Fatal("no node fits")
		}
	}
}

// BenchmarkPickNodeSpread measures one most-free placement query over 200
// nodes holding ~500 pods.
func BenchmarkPickNodeSpread(b *testing.B) { benchmarkPickNode(b, PlacementSpread) }

// BenchmarkPickNodeFirstFit measures one lowest-ID-that-fits placement
// query over the same fleet.
func BenchmarkPickNodeFirstFit(b *testing.B) { benchmarkPickNode(b, PlacementFirstFit) }

// BenchmarkAcquireRelease measures the steady-state warm-pod serving
// cycle: pool pop, resize, busy-count update, release, idle-shrink, pool
// push.
func BenchmarkAcquireRelease(b *testing.B) {
	c, err := New(Config{
		Nodes:          benchNodes,
		NodeMillicores: benchMillicores,
		PoolSize:       3,
		IdleMillicores: 100,
		Placement:      PlacementSpread,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Deploy("f0"); err != nil {
		b.Fatal(err)
	}
	f0, _ := c.Index("f0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := c.Acquire(f0, 1500)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Release(p); err != nil {
			b.Fatal(err)
		}
	}
}
