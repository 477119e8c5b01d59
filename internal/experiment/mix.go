package experiment

import (
	"fmt"
	"strings"
	"time"

	"janus/internal/cluster"
	"janus/internal/platform"
	"janus/internal/workflow"
)

// The tenant-mix scenario: the paper's provider serves *many* tenants'
// workflows on one shared substrate, and that contention — shared warm
// pools and shared node millicores, on top of the interference each
// request draws — is what motivates bilateral adaptation. This file
// serves three tenants (the IA chain, the VA chain, and the
// series-parallel Video Analyze DAG, each with its own SLO) as one merged
// arrival stream on one multi-node cluster via
// platform.Executor.RunMixed, then splits per-tenant and aggregate
// metrics out of the mixed trace set. A node-count scale-out sweep and a
// placement-policy comparison ride on the same machinery.

// MixTenant pairs a tenant name with the workflow it serves.
type MixTenant struct {
	Tenant   string
	Workflow *workflow.Workflow
}

// MixTenants returns the scenario's tenants: the IA chain (3 s SLO), the
// VA chain (1.5 s SLO), and the series-parallel Video Analyze DAG (1.1 s
// SLO). VA and VA-SP deliberately share functions (fe, icl, ico): their
// pods draw from the same warm pools, so one tenant's burst drains the
// other's warm pods and costs it cold starts. Interference is drawn per
// request, independent of where pods land.
func MixTenants() ([]MixTenant, error) {
	return []MixTenant{
		{Tenant: "ia", Workflow: workflow.IntelligentAssistant()},
		{Tenant: "va", Workflow: workflow.VideoAnalyze()},
		{Tenant: "va-sp", Workflow: SPWorkflow()},
	}, nil
}

// MixSystems lists the systems of the tenant-mix scenario, in display
// order. Every tenant runs under the same system within a run — the
// paired comparison is across systems, not across tenants. ORION sits out
// for the same reason as in the SP scenario: the series-parallel tenant's
// composite profiles do not retain the raw samples its distribution model
// needs.
func MixSystems() []string {
	return []string{SysOptimal, SysJanus, SysJanusPlus, SysJanusMinus, SysGrandSLAMP, SysGrandSLAM}
}

// mixSweepSystems are the systems contrasted in the scale-out sweep: the
// late-binding adapter, the strongest early binder, and the clairvoyant
// floor.
func mixSweepSystems() []string { return []string{SysOptimal, SysJanus, SysGrandSLAMP} }

// MixNodeCounts returns the node counts of the scale-out sweep.
func MixNodeCounts() []int { return []int{1, 2, 4} }

const (
	// MixNodeMillicores is each mix-cluster node's allocatable CPU: half
	// the paper's 52-core platform server, so the default two-node mix
	// matches the paper's aggregate capacity while making placement (and
	// capacity fragmentation) meaningful.
	MixNodeMillicores = 26000
	// MixDefaultNodes is the scenario's node count.
	MixDefaultNodes = 2
)

// MixTenantRow summarizes one tenant's share of a mixed trace set (or the
// aggregate across tenants, under the name "all").
type MixTenantRow struct {
	Tenant string
	// SLO is the tenant's latency objective; zero on the aggregate row
	// (tenants' objectives differ).
	SLO            time.Duration
	P50            time.Duration
	P99            time.Duration
	ViolationRate  float64
	MeanMillicores float64
	MissRate       float64
	ColdStarts     int
	Parked         int
}

// MixRun is one mixed serving run: every tenant under one system on one
// shared cluster.
type MixRun struct {
	System    string
	Nodes     int
	Placement cluster.Placement
	// Tenants holds per-tenant summaries in MixTenants order; Aggregate
	// summarizes the merged trace set.
	Tenants   []MixTenantRow
	Aggregate MixTenantRow
	// Traces is the mixed trace set split by tenant.
	Traces map[string][]platform.Trace
}

// mixRow reduces one tenant's (or the merged) trace slice to a row.
func mixRow(tenant string, slo time.Duration, traces []platform.Trace) MixTenantRow {
	sum := summarize(traces)
	return MixTenantRow{
		Tenant:         tenant,
		SLO:            slo,
		P50:            sum.P50,
		P99:            sum.P99,
		ViolationRate:  sum.ViolationRate,
		MeanMillicores: sum.MeanMillicores,
		MissRate:       sum.MissRate,
		ColdStarts:     sum.ColdStarts,
		Parked:         sum.Parked,
	}
}

// mixSpec identifies one mixed run.
type mixSpec struct {
	system    string
	nodes     int
	placement cluster.Placement
}

func (m mixSpec) key() string {
	return fmt.Sprintf("mix/%s/n%d/%s", m.system, m.nodes, m.placement)
}

// runMixedOne serves the full tenant mix under one system on one cluster
// shape, once per spec; concurrent callers of the same spec share one
// serving run, mirroring runPointOne.
func (s *Suite) runMixedOne(spec mixSpec) (*MixRun, error) {
	key := spec.key()
	return memo(s, key, func() (*MixRun, error) {
		tenants, err := MixTenants()
		if err != nil {
			return nil, err
		}
		workloads := make([]platform.TenantWorkload, len(tenants))
		for i, mt := range tenants {
			reqs, err := s.Workload(mt.Workflow, 1)
			if err != nil {
				return nil, err
			}
			alloc, err := s.allocator(spec.system, mt.Workflow, 1)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s for tenant %s: %w", spec.system, mt.Tenant, err)
			}
			workloads[i] = platform.TenantWorkload{Tenant: mt.Tenant, Requests: reqs, Allocator: alloc}
		}
		ex, err := platform.NewExecutor(s.executorConfig(spec.nodes, MixNodeMillicores, suitePoolSize, spec.placement), s.functions)
		if err != nil {
			return nil, err
		}
		byTenant, err := ex.RunMixed(workloads)
		if err != nil {
			return nil, fmt.Errorf("experiment: mixed run %s: %w", key, err)
		}
		run := &MixRun{
			System:    spec.system,
			Nodes:     spec.nodes,
			Placement: spec.placement,
			Traces:    byTenant,
		}
		var merged []platform.Trace
		for _, mt := range tenants {
			traces := byTenant[mt.Tenant]
			run.Tenants = append(run.Tenants, mixRow(mt.Tenant, mt.Workflow.SLO(), traces))
			merged = append(merged, traces...)
		}
		run.Aggregate = mixRow("all", 0, merged)
		return run, nil
	})
}

// runMixedSpecs fans mixed runs out over the suite's worker pool and
// returns results in input order — RunPoints' determinism-preserving
// shape, for specs instead of points.
func (s *Suite) runMixedSpecs(specs []mixSpec) ([]*MixRun, error) {
	return fanOut(s, len(specs), func(i int) (*MixRun, error) {
		run, err := s.runMixedOne(specs[i])
		if err != nil {
			return nil, fmt.Errorf("experiment: mixed run %s: %w", specs[i].key(), err)
		}
		return run, nil
	})
}

// MixScenario serves the full tenant mix — every MixTenants workflow as
// one merged arrival stream — under each scenario system on the shared
// MixDefaultNodes-node cluster, and splits per-tenant plus aggregate
// metrics out of each mixed trace set.
func (s *Suite) MixScenario() ([]*MixRun, error) {
	var specs []mixSpec
	for _, sys := range MixSystems() {
		specs = append(specs, mixSpec{system: sys, nodes: MixDefaultNodes, placement: cluster.PlacementSpread})
	}
	return s.runMixedSpecs(specs)
}

// MixScaleOut sweeps the cluster's node count for the sweep systems: the
// same merged workload on 1, 2, and 4 nodes of MixNodeMillicores each, so
// scaling out relieves (and scaling in concentrates) cross-tenant
// contention.
func (s *Suite) MixScaleOut() ([]*MixRun, error) {
	var specs []mixSpec
	for _, nodes := range MixNodeCounts() {
		for _, sys := range mixSweepSystems() {
			specs = append(specs, mixSpec{system: sys, nodes: nodes, placement: cluster.PlacementSpread})
		}
	}
	return s.runMixedSpecs(specs)
}

// MixPlacement contrasts the two placement policies for the late-binding
// adapter on the default mix cluster: spread balances free millicores
// across nodes, first-fit consolidates onto the lowest nodes (less
// fragmentation). Placement changes capacity, parking and cold starts;
// every request's interference is its own draw under both.
func (s *Suite) MixPlacement() ([]*MixRun, error) {
	return s.runMixedSpecs([]mixSpec{
		{system: SysJanus, nodes: MixDefaultNodes, placement: cluster.PlacementSpread},
		{system: SysJanus, nodes: MixDefaultNodes, placement: cluster.PlacementFirstFit},
	})
}

// FormatMixScenario renders per-tenant and aggregate rows per system.
func FormatMixScenario(runs []*MixRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tenant mix: ia + va + va-sp merged on %d node(s) x %d millicores (placement %s)\n",
		MixDefaultNodes, MixNodeMillicores, cluster.PlacementSpread)
	fmt.Fprintf(&b, "%-11s %-6s %6s %8s %8s %10s %12s %9s %6s %7s\n",
		"system", "tenant", "slo", "P50", "P99", "viol.rate", "millicores", "missrate", "cold", "parked")
	for _, run := range runs {
		rows := append(append([]MixTenantRow(nil), run.Tenants...), run.Aggregate)
		for _, r := range rows {
			slo := "-"
			if r.SLO > 0 {
				slo = fmt.Sprintf("%d", r.SLO.Milliseconds())
			}
			fmt.Fprintf(&b, "%-11s %-6s %6s %8d %8d %10.4f %12.1f %9.4f %6d %7d\n",
				run.System, r.Tenant, slo, r.P50.Milliseconds(), r.P99.Milliseconds(),
				r.ViolationRate, r.MeanMillicores, r.MissRate, r.ColdStarts, r.Parked)
		}
	}
	return b.String()
}

// FormatMixScaleOut renders the node-count sweep: aggregate metrics plus
// the per-tenant violation split.
func FormatMixScaleOut(runs []*MixRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mix scale-out: node-count sweep at %d millicores per node (placement %s)\n",
		MixNodeMillicores, cluster.PlacementSpread)
	fmt.Fprintf(&b, "%5s %-11s %8s %10s %12s %6s %7s  %s\n",
		"nodes", "system", "P99", "viol.rate", "millicores", "cold", "parked", "viol per tenant")
	for _, run := range runs {
		fmt.Fprintf(&b, "%5d %-11s %8d %10.4f %12.1f %6d %7d  %s\n",
			run.Nodes, run.System, run.Aggregate.P99.Milliseconds(), run.Aggregate.ViolationRate,
			run.Aggregate.MeanMillicores, run.Aggregate.ColdStarts, run.Aggregate.Parked,
			formatTenantViolations(run.Tenants))
	}
	return b.String()
}

// FormatMixPlacement renders the placement-policy comparison.
func FormatMixPlacement(runs []*MixRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mix placement: %s on %d node(s), spread vs first-fit\n", SysJanus, MixDefaultNodes)
	fmt.Fprintf(&b, "%-9s %8s %10s %12s %6s %7s  %s\n",
		"placement", "P99", "viol.rate", "millicores", "cold", "parked", "viol per tenant")
	for _, run := range runs {
		fmt.Fprintf(&b, "%-9s %8d %10.4f %12.1f %6d %7d  %s\n",
			run.Placement, run.Aggregate.P99.Milliseconds(), run.Aggregate.ViolationRate,
			run.Aggregate.MeanMillicores, run.Aggregate.ColdStarts, run.Aggregate.Parked,
			formatTenantViolations(run.Tenants))
	}
	return b.String()
}

func formatTenantViolations(rows []MixTenantRow) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s=%.4f", r.Tenant, r.ViolationRate)
	}
	return strings.Join(parts, " ")
}
