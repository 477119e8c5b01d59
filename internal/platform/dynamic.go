package platform

import (
	"fmt"
	"time"

	"janus/internal/obs"
	"janus/internal/workflow"
)

// This file holds the dynamic-shape overlays on the serving plane's one
// scheduler. Requests of a workflow with dynamic annotations
// (workflow.NewDynamic) materialize their plan online as predicates
// resolve, instead of executing the full static skeleton. The skeleton
// still defines the decision groups and readiness countdowns; the
// scheduler (startGroup, launchGroup, decide, startNode, replicaDone,
// nodeDone in platform.go) is shared with static workflows and consults
// these overlays only for requests whose reqState carries a dynReqState:
//
//   - liveness: a completed choice node kills its unchosen successor
//     edges; a node all of whose incoming edges are dead is pruned —
//     counted as finished for readiness and completion the instant its
//     death is determined, never scheduled, never billed;
//   - replication: a map node's fan-out width, revealed at its group's
//     readiness instant, launches that many concurrent replicas which
//     join before the node counts as done;
//   - iteration: a failed attempt of a retry node re-executes after a
//     fresh allocation decision against the SLO budget remaining at
//     that instant (the budget mechanism absorbs the repeated work);
//     an await node defers its group's decision to the fire instant of
//     its external trigger;
//   - shape: every dynamic decision reveals the group's resolved shape
//     to shape-aware allocators, bypassing the static decision memo.
//
// Every resolution is pre-drawn from the request's seeded RNG
// (DynDraws), so a dynamic run is a pure function of its inputs: the
// event interleaving, traces, and metrics replay byte for byte at any
// driver parallelism, exactly like a static run.

// dynPlan is the per-workflow dynamic overlay of a dagPlan: flat node
// indexing plus the annotation, successor, and in-degree tables the
// liveness propagation walks. Derived once per workflow, shared by
// every request.
type dynPlan struct {
	// flat maps a step name to its flat node index; base[g] is the
	// first flat index of group g's members (flat = base[g] + member).
	flat map[string]int
	base []int
	// steps, loc, spec, inDeg are indexed by flat node index.
	steps []string
	loc   []dynLoc
	spec  []workflow.DynamicNode
	inDeg []int
	// succ[flat] lists successor flat indices in edge-declaration
	// order — the order choice resolutions index.
	succ [][]int
	// awaits lists the flat indices of await steps.
	awaits []int
}

type dynLoc struct{ group, member int }

func newDynPlan(w *workflow.Workflow, p *dagPlan) *dynPlan {
	dp := &dynPlan{flat: map[string]int{}, base: make([]int, len(p.groups))}
	for g, grp := range p.groups {
		dp.base[g] = len(dp.steps)
		for b, n := range grp {
			flat := len(dp.steps)
			dp.flat[n.Name] = flat
			dp.steps = append(dp.steps, n.Name)
			dp.loc = append(dp.loc, dynLoc{group: g, member: b})
			d, _ := w.Dynamic(n.Name)
			dp.spec = append(dp.spec, d)
			dp.inDeg = append(dp.inDeg, len(w.Predecessors(n.Name)))
			if d.Await {
				dp.awaits = append(dp.awaits, flat)
			}
		}
	}
	dp.succ = make([][]int, len(dp.steps))
	for flat, step := range dp.steps {
		for _, s := range w.Successors(step) {
			dp.succ[flat] = append(dp.succ[flat], dp.flat[s])
		}
	}
	return dp
}

func (dp *dynPlan) isAwait(flat int) bool { return dp.spec[flat].Await }

// validateRequest checks that a request of a dynamic workflow carries a
// complete, in-range pre-sampled resolution (GenerateWorkload's output
// shape): hand-built requests fail here instead of mid-run.
func (dp *dynPlan) validateRequest(tenant string, r *Request) error {
	if r.Dyn == nil {
		return fmt.Errorf("platform: tenant %q request %d serves dynamic workflow %s without pre-sampled resolutions (Request.Dyn)",
			tenant, r.ID, r.Workflow.Name())
	}
	for flat, step := range dp.steps {
		d := dp.spec[flat]
		if d.Choice != nil {
			idx, ok := r.Dyn.Choice[step]
			if !ok || idx < 0 || idx >= len(dp.succ[flat]) {
				return fmt.Errorf("platform: tenant %q request %d choice step %q resolution %d out of range [0, %d)",
					tenant, r.ID, step, idx, len(dp.succ[flat]))
			}
		}
		if d.Map == nil && d.Retry == nil {
			continue
		}
		width := 1
		if d.Map != nil {
			width = r.Dyn.Width[step]
			if width < 1 || width > d.Map.MaxWidth {
				return fmt.Errorf("platform: tenant %q request %d map step %q width %d outside [1, %d]",
					tenant, r.ID, step, width, d.Map.MaxWidth)
			}
		}
		attempts := r.Dyn.Attempts[step]
		if len(attempts) != width {
			return fmt.Errorf("platform: tenant %q request %d step %q carries %d attempt counts for width %d",
				tenant, r.ID, step, len(attempts), width)
		}
		maxRetries := 0
		if d.Retry != nil {
			maxRetries = d.Retry.MaxRetries
		}
		draws := r.Dyn.NodeDraws[step]
		if len(draws) != width {
			return fmt.Errorf("platform: tenant %q request %d step %q carries %d draw rows for width %d",
				tenant, r.ID, step, len(draws), width)
		}
		for rep, a := range attempts {
			if a < 0 || a > maxRetries {
				return fmt.Errorf("platform: tenant %q request %d step %q replica %d plans %d failures, retry bound %d",
					tenant, r.ID, step, rep, a, maxRetries)
			}
			if len(draws[rep]) != a+1 {
				return fmt.Errorf("platform: tenant %q request %d step %q replica %d carries %d draws for %d attempts",
					tenant, r.ID, step, rep, len(draws[rep]), a+1)
			}
		}
	}
	return nil
}

// dynReqState is one request's dynamic-shape serving state, indexed by
// flat node index.
type dynReqState struct {
	// dead marks pruned nodes; liveIn counts incoming edges not yet
	// determined dead (a node dies when it reaches zero).
	dead   []bool
	liveIn []int
	// repsLeft counts a node's outstanding replicas; the node completes
	// when the last replica's final attempt lands.
	repsLeft []int
	// attempt[flat][replica] is the replica's current 0-based attempt.
	attempt [][]int
	// armed marks await steps a trigger will fire for; fired latches an
	// early trigger; waitingTrig marks readiness reached with the
	// decision deferred to the trigger.
	armed, fired, waitingTrig []bool
}

func newDynReqState(dp *dynPlan) *dynReqState {
	n := len(dp.steps)
	d := &dynReqState{
		dead:        make([]bool, n),
		liveIn:      make([]int, n),
		repsLeft:    make([]int, n),
		attempt:     make([][]int, n),
		armed:       make([]bool, n),
		fired:       make([]bool, n),
		waitingTrig: make([]bool, n),
	}
	copy(d.liveIn, dp.inDeg)
	return d
}

// dynReady reports whether a dynamic group's decision runs at its
// readiness instant (every predecessor completed or dead, so every
// member's liveness is determined). A fully pruned group never runs: the
// members' deaths already advanced readiness. An await member whose
// trigger has not fired yet defers the decision to fireTrigger.
func (rs *reqState) dynReady(group int) bool {
	dp := rs.plan.dyn
	members := rs.plan.groups[group]
	anyLive := false
	for b := range members {
		if !rs.dyn.dead[dp.base[group]+b] {
			anyLive = true
			break
		}
	}
	if !anyLive {
		return false
	}
	if len(members) == 1 {
		flat := dp.base[group]
		if dp.spec[flat].Await && !rs.dyn.fired[flat] {
			rs.dyn.waitingTrig[flat] = true
			return false
		}
	}
	return true
}

// armReplicas prepares a dynamic member's launch and returns how many
// replicas to start: 0 for a pruned member, the resolved width for a map
// member, 1 otherwise. The replica join and per-replica attempt counters
// start here.
func (rs *reqState) armReplicas(group, member int) int {
	dp := rs.plan.dyn
	flat := dp.base[group] + member
	if rs.dyn.dead[flat] {
		return 0
	}
	width := 1
	if dp.spec[flat].Map != nil {
		width = rs.r.Dyn.Width[dp.steps[flat]]
	}
	rs.dyn.repsLeft[flat] = width
	rs.dyn.attempt[flat] = make([]int, width)
	return width
}

// groupShape is the resolved-shape key of a decision group at its
// readiness instant: the live map member's drawn width ("w=3"), or ""
// when nothing in the group resolved. This is exactly the key the
// synthesizer's per-(group, resolved-shape) variant tables carry.
func (st *runState) groupShape(rs *reqState, group int) string {
	dp := rs.plan.dyn
	for b := range rs.plan.groups[group] {
		flat := dp.base[group] + b
		if dp.spec[flat].Map != nil && !rs.dyn.dead[flat] {
			return fmt.Sprintf("w=%d", rs.r.Dyn.Width[dp.steps[flat]])
		}
	}
	return ""
}

// allocateDyn makes one dynamic-path decision. Shape-aware allocators
// see the group's resolved-shape key; plain allocators get their usual
// conservative call. Dynamic decisions bypass the memo: they may
// depend on the shape, which the memo key cannot express.
func (st *runState) allocateDyn(rs *reqState, group int, remaining time.Duration) (int, bool) {
	if sa, ok := rs.tn.alloc.(ShapeAwareAllocator); ok {
		return sa.AllocateShaped(rs.r, group, st.groupShape(rs, group), remaining)
	}
	return rs.tn.alloc.Allocate(rs.r, group, remaining)
}

// edgeDead records one incoming edge of a node as dead; the node dies
// when its last potentially-live edge does, and counts as finished at
// once (nodeDone propagates the death downstream).
func (st *runState) edgeDead(rs *reqState, flat int, end time.Duration) {
	rs.dyn.liveIn[flat]--
	if rs.dyn.liveIn[flat] > 0 || rs.dyn.dead[flat] {
		return
	}
	rs.dyn.dead[flat] = true
	loc := rs.plan.dyn.loc[flat]
	st.nodeDone(rs, loc.group, loc.member, end)
}

// fireTrigger delivers an external event to its await step: if the
// step already reached readiness the deferred decision runs now; an
// early trigger latches so the step proceeds without waiting when it
// becomes ready; a trigger into a pruned branch is a no-op.
func (st *runState) fireTrigger(rs *reqState, flat int, now time.Duration) {
	if st.failed != nil {
		return
	}
	if st.tracer != nil {
		ev := reqEvent(rs, now, obs.KindTrigger)
		ev.Reason = rs.plan.dyn.steps[flat]
		st.tracer.Emit(ev)
	}
	rs.dyn.fired[flat] = true
	if rs.dyn.dead[flat] || !rs.dyn.waitingTrig[flat] {
		return
	}
	rs.dyn.waitingTrig[flat] = false
	st.launchGroup(rs, rs.plan.dyn.loc[flat].group)
}
