package experiment

import (
	"time"

	"janus/internal/replay"
)

// The fleet-scale replay scenario: the same non-stationary serving
// machinery as the replay scenario (schedule-driven admission, elastic
// warm pools, the online bilateral loop), pushed to the scale the
// AARC-style fleet sweeps in PAPERS.md imply — hundreds of nodes and
// hundreds of thousands of requests in one discrete-event run. The grid exists to
// prove the serving plane's hot path at fleet dimensions: placement
// decisions over FleetNodes nodes, busy and warm pods counted across
// thousands of pods, and capacity parking queues thousands deep during
// the burst. It is the workload the indexed cluster state
// (internal/cluster) is sized against, and the one BENCH_*.json
// trajectory files track.

const (
	// FleetNodes is the fleet cluster's node count — two hundred of the
	// tenant-mix scenario's half-size nodes.
	FleetNodes = 200
	// FleetNodeMillicores matches the replay scenario's node size, so the
	// fleet is exactly a 100x wider replay substrate.
	FleetNodeMillicores = ReplayNodeMillicores
)

// FleetSchedule builds the fleet grid's non-stationary schedule: the
// replay scenario's shape (warm-up, ramp, flash-crowd burst with a tenant
// drift, two diurnal cycles, cool-down) at fleet rates. Durations are
// fixed — the schedule describes ~3.5 minutes of wall traffic — and rates
// scale with the suite's request budget: the paper-scale suite admits
// ~230k requests, a quick suite ~46k, both over the identical shape.
func (s *Suite) FleetSchedule() (*replay.Schedule, error) {
	// Rate scale: cfg.Requests of 1000 (paper) is the unit. The floor
	// keeps tiny test suites admitting enough traffic per phase for every
	// tenant to appear in the stream.
	f := float64(s.cfg.Requests) / 1000
	if f < 0.02 {
		f = 0.02
	}
	r := func(x float64) float64 { return x * f }
	mix := replay.ZipfMix("ia", "va", "dag")
	// The burst drifts the mix toward the heavy tail exactly as the
	// replay scenario's flash crowd does.
	burstMix := []replay.TenantShare{{Tenant: "ia", Weight: 1}, {Tenant: "va", Weight: 1.5}, {Tenant: "dag", Weight: 1.5}}
	burst := replay.Burst(12*time.Second, r(1200), r(3000))
	burst.Mix = burstMix
	return replay.NewSchedule(s.cfg.Seed, mix,
		replay.Plateau(30*time.Second, r(600)),
		replay.Ramp(30*time.Second, r(600), r(1500)),
		burst,
		replay.Diurnal(120*time.Second, r(500), r(2000), 60*time.Second),
		replay.Plateau(20*time.Second, r(600)),
	)
}

func fleetSpec() scheduleSpec {
	return scheduleSpec{
		scenario:       "fleet",
		nodes:          FleetNodes,
		nodeMillicores: FleetNodeMillicores,
		schedule:       (*Suite).FleetSchedule,
	}
}

// FleetScenario serves the fleet-scale schedule under every provider
// configuration (ReplayConfigs order, fanned over the suite's worker
// pool). Every configuration faces the identical ~hundreds-of-thousands
// request stream on the same 200-node cluster; results are deterministic
// at any parallelism.
func (s *Suite) FleetScenario() ([]*ReplayRun, error) {
	return s.scheduleScenario(fleetSpec())
}
