package platform

import (
	"fmt"
	"time"

	"janus/internal/cluster"
	"janus/internal/obs"
	"janus/internal/workflow"
)

// This file is the serving plane's dynamic-shape path: requests of a
// workflow with dynamic annotations (workflow.NewDynamic) materialize
// their plan online as predicates resolve, instead of executing the
// full static skeleton. The skeleton still defines the decision groups
// and readiness countdowns — the static engine's structures are reused
// unchanged — and three per-request overlays project it down:
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
//     its external trigger.
//
// Every resolution is pre-drawn from the request's seeded RNG
// (DynDraws), so a dynamic run is a pure function of its inputs: the
// event interleaving, traces, and metrics replay byte for byte at any
// driver parallelism, exactly like the static engine.

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

// startGroupDyn is the dynamic path of startGroup: it runs at the
// group's readiness instant (every predecessor completed or dead, so
// every member's liveness is determined), skips fully pruned groups,
// and defers an await member's decision to its trigger.
func (st *runState) startGroupDyn(rs *reqState, group int) {
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
		return // pruned; the members' deaths already advanced readiness
	}
	if len(members) == 1 {
		flat := dp.base[group]
		if dp.spec[flat].Await && !rs.dyn.fired[flat] {
			rs.dyn.waitingTrig[flat] = true
			return
		}
	}
	st.launchGroupDyn(rs, group)
}

// launchGroupDyn makes the group's one allocation decision — at its
// actual readiness instant, against SLO − elapsed, with the resolved
// shape revealed to shape-aware allocators — and launches every live
// member (map members as their resolved number of replicas).
func (st *runState) launchGroupDyn(rs *reqState, group int) {
	dp := rs.plan.dyn
	now := st.engine.Now()
	remaining := rs.r.Workflow.SLO() - (now - rs.arrival)
	mc, hit := st.allocateDyn(rs, group, remaining)
	if mc <= 0 {
		st.fail(fmt.Errorf("platform: allocator %s returned non-positive allocation %d", rs.tn.alloc.Name(), mc))
		return
	}
	rs.acc.Decisions++
	if !hit {
		rs.acc.Misses++
	}
	if st.tracer != nil {
		ev := reqEvent(rs, now, obs.KindDecision)
		ev.Group = group
		ev.Value = int64(mc)
		ev.Aux = int64(remaining)
		ev.Flag = hit
		ev.Reason = st.groupShape(rs, group)
		st.tracer.Emit(ev)
	}
	if rs.tn.om != nil {
		rs.tn.om.decision(hit)
	}
	for b := range rs.plan.groups[group] {
		flat := dp.base[group] + b
		if rs.dyn.dead[flat] {
			continue
		}
		width := 1
		if dp.spec[flat].Map != nil {
			width = rs.r.Dyn.Width[dp.steps[flat]]
		}
		rs.dyn.repsLeft[flat] = width
		rs.dyn.attempt[flat] = make([]int, width)
		for rep := 0; rep < width; rep++ {
			st.startNodeDyn(rs, group, b, rep, mc, hit, false)
			if st.failed != nil {
				return
			}
		}
	}
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

// startNodeDyn mirrors startNode for one replica of a dynamic node:
// acquire a pod or park the already-decided allocation until capacity
// frees up.
func (st *runState) startNodeDyn(rs *reqState, group, member, replica, mc int, hit, retried bool) {
	if st.failed != nil {
		return
	}
	fn := rs.plan.groups[group][member].Function
	pod, cold, err := st.cluster.Acquire(fn, mc)
	if err != nil {
		if retried {
			st.park.restore(st.retrySlot, st.retryPos)
			if st.om != nil {
				st.om.parkDepth.Set(int64(st.park.live))
			}
			return
		}
		rs.acc.Parked++
		if st.window != nil {
			st.window.queued[fn]++
		}
		st.park.park(st.slotOf(fn), parkedNode{rs: rs, group: int32(group), member: int32(member), replica: int32(replica), mc: int32(mc), hit: hit, fn: fn})
		if st.tracer != nil {
			ev := reqEvent(rs, st.engine.Now(), obs.KindPark)
			ev.Group, ev.Member, ev.Replica = group, member, replica
			ev.Function = fn
			ev.Value = int64(mc)
			st.tracer.Emit(ev)
		}
		if rs.tn.om != nil {
			rs.tn.om.parked.Inc()
		}
		if st.om != nil {
			st.om.parkDepth.Set(int64(st.park.live))
		}
		return
	}
	if st.window != nil {
		if retried {
			st.window.queued[fn]--
		}
		st.window.acquires[fn]++
		if cold {
			st.window.cold[fn]++
		}
	}
	if st.tracer != nil {
		now := st.engine.Now()
		ev := reqEvent(rs, now, obs.KindAcquire)
		ev.Group, ev.Member, ev.Replica = group, member, replica
		ev.Function = fn
		ev.Value = int64(pod.Millicores())
		ev.Aux = int64(pod.NodeID)
		ev.Flag = cold
		st.tracer.Emit(ev)
		if cold {
			cs := reqEvent(rs, now, obs.KindColdStart)
			cs.Group, cs.Member, cs.Replica = group, member, replica
			cs.Function = fn
			cs.Value = int64(st.ex.cfg.ColdStartup)
			st.tracer.Emit(cs)
		}
	}
	st.executeDyn(rs, group, member, replica, pod, cold, hit)
}

// executeDyn runs one attempt of one replica: the draw comes from the
// request's pre-sampled per-(replica, attempt) table for map/retry
// steps and from the base draw otherwise.
func (st *runState) executeDyn(rs *reqState, group, member, replica int, pod *cluster.Pod, cold, hit bool) {
	flat := rs.plan.dyn.base[group] + member
	attempt := rs.dyn.attempt[flat][replica]
	draw := rs.r.Draws[group][member]
	if nd, ok := rs.r.Dyn.NodeDraws[rs.plan.dyn.steps[flat]]; ok {
		draw = nd[replica][attempt]
	}
	st.launch(nodeRun{rs: rs, pod: pod, group: group, member: member, replica: replica, attempt: attempt, cold: cold, hit: hit}, draw)
}

// replicaDone handles one attempt's completion: a planned failure
// re-decides and relaunches the replica (bounded retry), the last
// replica's success completes the node.
func (st *runState) replicaDone(rs *reqState, group, member, replica int, end time.Duration) {
	dp := rs.plan.dyn
	flat := dp.base[group] + member
	step := dp.steps[flat]
	planned := 0
	if a, ok := rs.r.Dyn.Attempts[step]; ok {
		planned = a[replica]
	}
	if rs.dyn.attempt[flat][replica] < planned {
		rs.dyn.attempt[flat][replica]++
		// The re-attempt is a new readiness instant for this node: a
		// fresh decision against the SLO budget that remains now. The
		// group's cone table still applies — the remaining work is the
		// same cone, just later in its budget.
		remaining := rs.r.Workflow.SLO() - (end - rs.arrival)
		mc, hit := st.allocateDyn(rs, group, remaining)
		if mc <= 0 {
			st.fail(fmt.Errorf("platform: allocator %s returned non-positive allocation %d", rs.tn.alloc.Name(), mc))
			return
		}
		rs.acc.Decisions++
		if !hit {
			rs.acc.Misses++
		}
		if st.tracer != nil {
			ev := reqEvent(rs, end, obs.KindDecision)
			ev.Group = group
			ev.Value = int64(mc)
			ev.Aux = int64(remaining)
			ev.Flag = hit
			ev.Reason = st.groupShape(rs, group)
			st.tracer.Emit(ev)
		}
		if rs.tn.om != nil {
			rs.tn.om.decision(hit)
		}
		st.startNodeDyn(rs, group, member, replica, mc, hit, false)
		return
	}
	rs.dyn.repsLeft[flat]--
	if rs.dyn.repsLeft[flat] > 0 {
		return
	}
	st.nodeDoneDyn(rs, flat, end)
}

// nodeDoneDyn is the dynamic path of nodeDone: a completed choice node
// first kills its unchosen successor edges (settling every downstream
// readiness countdown before the completion itself is applied), then
// the usual pending decrements start whichever groups became ready.
func (st *runState) nodeDoneDyn(rs *reqState, flat int, end time.Duration) {
	dp := rs.plan.dyn
	step := dp.steps[flat]
	if dp.spec[flat].Choice != nil {
		chosen := rs.r.Dyn.Choice[step]
		for i, next := range dp.succ[flat] {
			if i == chosen {
				continue
			}
			st.edgeDead(rs, next, end)
			if st.failed != nil {
				return
			}
		}
	}
	rs.remaining--
	if rs.remaining == 0 {
		st.finishRequest(rs, end)
		return
	}
	for _, dg := range rs.plan.dependents[step] {
		rs.pending[dg]--
		if rs.pending[dg] == 0 {
			st.startGroupDyn(rs, dg)
			if st.failed != nil {
				return
			}
		}
	}
}

// edgeDead records one incoming edge of a node as dead; the node dies
// when its last potentially-live edge does.
func (st *runState) edgeDead(rs *reqState, flat int, end time.Duration) {
	rs.dyn.liveIn[flat]--
	if rs.dyn.liveIn[flat] > 0 || rs.dyn.dead[flat] {
		return
	}
	st.markDead(rs, flat, end)
}

// markDead prunes a node: it counts as finished immediately (for both
// the request's completion and its dependents' readiness), and its
// death propagates along every outgoing edge — the cascade that prunes
// a whole unchosen subtree in one instant.
func (st *runState) markDead(rs *reqState, flat int, end time.Duration) {
	dp := rs.plan.dyn
	rs.dyn.dead[flat] = true
	rs.remaining--
	if rs.remaining == 0 {
		st.finishRequest(rs, end)
		return
	}
	for _, next := range dp.succ[flat] {
		st.edgeDead(rs, next, end)
		if st.failed != nil {
			return
		}
	}
	step := dp.steps[flat]
	for _, dg := range rs.plan.dependents[step] {
		rs.pending[dg]--
		if rs.pending[dg] == 0 {
			st.startGroupDyn(rs, dg)
			if st.failed != nil {
				return
			}
		}
	}
}

func (st *runState) finishRequest(rs *reqState, end time.Duration) {
	rs.acc.Done = end
	rs.acc.E2E = end - rs.arrival
	rs.tn.traces[rs.r.ID] = rs.acc
	rs.tn.done++
	st.done++
	if st.tracer != nil || rs.tn.om != nil {
		st.observeComplete(rs, end)
	}
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
	st.launchGroupDyn(rs, rs.plan.dyn.loc[flat].group)
}
