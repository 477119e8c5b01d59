package experiment

import (
	"fmt"
	"strings"
	"time"

	"janus/internal/autoscale"
	"janus/internal/platform"
	"janus/internal/replay"
)

// The sharded fleet sweep: the first sharding step the ROADMAP's fleet
// perf item calls for. The fleet grid's three provider configurations
// are already independent simulations (scheduleScenario fans them);
// this scenario additionally shards each configuration's run — the
// fleet arrival stream splits round-robin in global arrival order
// across FleetShardCells independent cells, each a full serving
// simulation (own cluster, adapters, autoscaler, regen loop) on
// FleetNodes/FleetShardCells nodes, and the per-cell results merge
// deterministically. The cells of one configuration share no state, so
// they can run on the suite's worker pool — or, eventually, on
// different machines — and the merged result is identical either way.
//
// A sharded run is its own experiment, not a bit-identical replica of
// the unsharded fleet grid: cells place over 50-node sub-fleets, so
// contention resolves cell-locally (AARC's placement-aware sweeps are
// the direction this seam exists for). The invariants the tests pin
// are exact conservation — every admitted request is served in exactly
// one cell — and byte-identical determinism at any parallelism.

const (
	// FleetShardCells is the number of independent cells the fleet
	// stream shards across. It divides FleetNodes evenly.
	FleetShardCells = 4
	// FleetShardNodes is each cell's node count.
	FleetShardNodes = FleetNodes / FleetShardCells
)

// fleetShardSpec is the per-cell serving spec: a cell-sized slice of
// the fleet substrate. The schedule field feeds serveSchedule-style
// callers only and is unused here — cells serve explicit streams.
func fleetShardSpec() scheduleSpec {
	return scheduleSpec{
		scenario:       "fleetshard",
		nodes:          FleetShardNodes,
		nodeMillicores: FleetNodeMillicores,
		schedule:       (*Suite).FleetSchedule,
	}
}

// shardArrivals splits a merged arrival stream round-robin by global
// arrival order into per-cell per-tenant arrival times. Round-robin in
// the already-deterministic global order keeps every cell's stream a
// deterministic function of the schedule alone, and spreads each
// phase's load (and each tenant's Zipf share) evenly across cells.
func shardArrivals(arrivals []replay.Arrival, cells int) []map[string][]time.Duration {
	out := make([]map[string][]time.Duration, cells)
	for c := range out {
		out[c] = make(map[string][]time.Duration)
	}
	for i, a := range arrivals {
		c := i % cells
		out[c][a.Tenant] = append(out[c][a.Tenant], a.At)
	}
	return out
}

// mergeShardRuns folds per-cell runs (in cell order) into one result:
// traces concatenate per tenant in cell order, rows are recomputed
// over the merged trace sets, pod-seconds and pool churn sum, and peak
// pods sum across cells — the provisioned worst case, since cells are
// separate sub-fleets whose peaks need not coincide. Swap logs
// concatenate in cell order.
func mergeShardRuns(config string, sched *replay.Schedule, tenants []MixTenant, cellRuns []*ReplayRun) *ReplayRun {
	run := &ReplayRun{
		Config:         config,
		Scenario:       "fleetshard",
		Nodes:          FleetShardNodes * len(cellRuns),
		NodeMillicores: FleetNodeMillicores,
		Schedule:       sched.String(),
		Swaps:          make(map[string][]autoscale.Swap),
		Traces:         make(map[string][]platform.Trace),
	}
	for _, cell := range cellRuns {
		run.Metrics.PodSeconds += cell.Metrics.PodSeconds
		run.Metrics.PeakPods += cell.Metrics.PeakPods
		run.Metrics.PoolGrown += cell.Metrics.PoolGrown
		run.Metrics.PoolShrunk += cell.Metrics.PoolShrunk
		for _, mt := range tenants {
			if ts := cell.Traces[mt.Tenant]; len(ts) > 0 {
				run.Traces[mt.Tenant] = append(run.Traces[mt.Tenant], ts...)
			}
			if sw := cell.Swaps[mt.Tenant]; len(sw) > 0 {
				run.Swaps[mt.Tenant] = append(run.Swaps[mt.Tenant], sw...)
			}
		}
	}
	run.summarize(tenants)
	return run
}

// serveFleetShards runs one provider configuration sharded: build the
// fleet schedule once, split its stream, serve each cell sequentially
// (configurations already fan across the worker pool), merge.
func (s *Suite) serveFleetShards(config string) (*ReplayRun, error) {
	tenants, err := ReplayTenants()
	if err != nil {
		return nil, err
	}
	sched, err := s.FleetSchedule()
	if err != nil {
		return nil, err
	}
	arrivals := sched.Arrivals()
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("experiment: fleet schedule admitted no requests")
	}
	spec := fleetShardSpec()
	shards := shardArrivals(arrivals, FleetShardCells)
	cellRuns := make([]*ReplayRun, len(shards))
	for c, byTenant := range shards {
		cellRuns[c], err = s.serveStream(spec, config, tenants, sched, byTenant)
		if err != nil {
			return nil, fmt.Errorf("experiment: fleetshard %s cell %d: %w", config, c, err)
		}
	}
	return mergeShardRuns(config, sched, tenants, cellRuns), nil
}

// FleetShardScenario serves the fleet-scale schedule sharded across
// independent cells under every provider configuration (ReplayConfigs
// order, configurations fanned over the suite's worker pool), each once
// per suite. Results are deterministic at any parallelism.
func (s *Suite) FleetShardScenario() ([]*ReplayRun, error) {
	configs := ReplayConfigs()
	return fanOut(s, len(configs), func(i int) (*ReplayRun, error) {
		return memo(s, "fleetshard/"+configs[i], func() (*ReplayRun, error) {
			return s.serveFleetShards(configs[i])
		})
	})
}

// FormatFleetShard renders the sharded sweep: the cell layout header,
// then the standard replay grid over the merged results.
func FormatFleetShard(runs []*ReplayRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding: %d cells x %d nodes per config, round-robin by global arrival order, deterministic merge (peak pods = sum of cell peaks)\n",
		FleetShardCells, FleetShardNodes)
	b.WriteString(FormatReplay(runs))
	return b.String()
}
