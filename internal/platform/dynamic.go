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
// these overlays only for requests of a dynamic plan, whose pooled
// reqState carries a dynReqState:
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

// dynPlan is the per-workflow dynamic overlay of a dagPlan: the
// annotation, successor, and in-degree tables the liveness propagation
// walks, indexed by the plan's flat node index (dagPlan.base). Derived
// once per workflow, shared by every request.
type dynPlan struct {
	// flat maps a step name to its flat node index, for triggers that
	// name their await step.
	flat map[string]int
	// steps, loc, spec, inDeg, rec are indexed by flat node index.
	steps []string
	loc   []dynLoc
	spec  []workflow.DynamicNode
	inDeg []int
	// rec is the index of the node's record in every request's
	// DynDraws, -1 for an unannotated node; annotated lists the flat
	// indices of those records in DynamicSteps order.
	rec       []int
	annotated []int
	// succ[flat] lists successor flat indices in edge-declaration
	// order — the order choice resolutions index.
	succ [][]int
	// awaits lists the flat indices of await steps.
	awaits []int
	// shapeKeys[w] is the resolved-shape key "w=<w>" of a map width w.
	shapeKeys []string
	// live is executions' reusable countdown of potentially-live
	// incoming edges.
	live []int
	// shape is the last draw shape whose step names validateRequest
	// accepted for the plan.
	shape *drawShape
}

type dynLoc struct{ group, member int }

func newDynPlan(w *workflow.Workflow, p *dagPlan, flat map[string]int) *dynPlan {
	dp := &dynPlan{flat: flat}
	maxWidth := 0
	for g, grp := range p.groups {
		for b, n := range grp {
			flat := len(dp.steps)
			dp.steps = append(dp.steps, n.Name)
			dp.loc = append(dp.loc, dynLoc{group: g, member: b})
			d, _ := w.Dynamic(n.Name)
			dp.spec = append(dp.spec, d)
			dp.inDeg = append(dp.inDeg, len(w.Predecessors(n.Name)))
			dp.rec = append(dp.rec, -1)
			if d.Await {
				dp.awaits = append(dp.awaits, flat)
			}
			if d.Map != nil {
				maxWidth = max(maxWidth, d.Map.MaxWidth)
			}
		}
	}
	dp.succ = make([][]int, len(dp.steps))
	for flat, step := range dp.steps {
		for _, s := range w.Successors(step) {
			dp.succ[flat] = append(dp.succ[flat], dp.flat[s])
		}
	}
	for k, step := range w.DynamicSteps() {
		dp.rec[dp.flat[step]] = k
		dp.annotated = append(dp.annotated, dp.flat[step])
	}
	dp.shapeKeys = make([]string, maxWidth+1)
	for width := 1; width <= maxWidth; width++ {
		dp.shapeKeys[width] = workflow.ShapeKey(width)
	}
	dp.live = make([]int, len(dp.steps))
	return dp
}

func (dp *dynPlan) isAwait(flat int) bool { return dp.spec[flat].Await }

// validateRequest checks that a request of a dynamic workflow carries a
// complete, in-range pre-sampled resolution of this workflow's steps
// (GenerateWorkload's output shape), drawn at the request's batch:
// hand-built or foreign resolutions fail here instead of mid-run. The
// check is structural — step names, ranges and the flat layout — never
// the identity of the workflow the resolution was generated for,
// because callers re-point requests at copies of their workflow
// (Workflow.WithSLO). A workload's resolutions share one draw shape, so
// the step names are checked once per shape, like checkShape's
// functions.
func (dp *dynPlan) validateRequest(tenant string, r *Request) error {
	d := r.Dyn
	if d == nil {
		return fmt.Errorf("platform: tenant %q request %d serves dynamic workflow %s without pre-sampled resolutions (Request.Dyn)",
			tenant, r.ID, r.Workflow.Name())
	}
	if len(d.steps) != len(dp.annotated) {
		return fmt.Errorf("platform: tenant %q request %d carries %d step resolutions, workflow %s annotates %d steps",
			tenant, r.ID, len(d.steps), r.Workflow.Name(), len(dp.annotated))
	}
	if d.shape.batch != r.Batch {
		return fmt.Errorf("platform: tenant %q request %d runs at batch %d, its resolution was drawn at batch %d",
			tenant, r.ID, r.Batch, d.shape.batch)
	}
	if d.shape != dp.shape {
		for k, flat := range dp.annotated {
			if name, step := d.shape.steps[k], dp.steps[flat]; name != step {
				return fmt.Errorf("platform: tenant %q request %d resolution %d names step %q, workflow %s annotates %q there",
					tenant, r.ID, k, name, r.Workflow.Name(), step)
			}
		}
		dp.shape = d.shape
	}
	att, draws := 0, 0
	for k, flat := range dp.annotated {
		s, spec, step := &d.steps[k], dp.spec[flat], dp.steps[flat]
		if spec.Choice != nil && (s.choice < 0 || int(s.choice) >= len(dp.succ[flat])) {
			return fmt.Errorf("platform: tenant %q request %d choice step %q resolution %d out of range [0, %d)",
				tenant, r.ID, step, s.choice, len(dp.succ[flat]))
		}
		choice, width, reps, maxRetries := int(s.choice), 0, 0, 0
		if spec.Choice == nil {
			choice = -1
		}
		if spec.Map != nil {
			width, reps = int(s.width), int(s.width)
			if width < 1 || width > spec.Map.MaxWidth {
				return fmt.Errorf("platform: tenant %q request %d map step %q width %d outside [1, %d]",
					tenant, r.ID, step, width, spec.Map.MaxWidth)
			}
		}
		if spec.Retry != nil {
			reps, maxRetries = max(reps, 1), spec.Retry.MaxRetries
		}
		if int(s.choice) != choice || int(s.width) != width || int(s.reps) != reps ||
			int(s.att) != att || int(s.draw) != draws || att+reps > len(d.attempts) {
			return fmt.Errorf("platform: tenant %q request %d step %q resolution (choice %d, width %d, %d replicas at %d/%d) does not fit the layout (choice %d, width %d, %d replicas at %d/%d of %d attempt counts)",
				tenant, r.ID, step, s.choice, s.width, s.reps, s.att, s.draw, choice, width, reps, att, draws, len(d.attempts))
		}
		for rep, a := range d.attempts[att : att+reps] {
			if int(a) > maxRetries {
				return fmt.Errorf("platform: tenant %q request %d step %q replica %d plans %d failures, retry bound %d",
					tenant, r.ID, step, rep, a, maxRetries)
			}
			draws += int(a) + 1
		}
		att += reps
	}
	if att != len(d.attempts) || draws != len(d.draws) {
		return fmt.Errorf("platform: tenant %q request %d carries %d attempt counts and %d draws, its steps resolve %d and %d",
			tenant, r.ID, len(d.attempts), len(d.draws), att, draws)
	}
	return nil
}

// executions counts the node executions a validated resolution implies:
// one per live node, or one per replica attempt of a live map or retry
// node. It replays the engine's pruning in flat order, which is
// topological: an edge dies with its source or as an unchosen choice
// edge, and a node with incoming edges dies when all of them have.
func (dp *dynPlan) executions(d *DynDraws) int {
	live := dp.live
	copy(live, dp.inDeg)
	n := 0
	for flat, k := range dp.rec {
		dead := dp.inDeg[flat] > 0 && live[flat] == 0
		chosen := -1
		if k >= 0 {
			chosen = int(d.steps[k].choice)
		}
		switch {
		case dead:
		case k >= 0 && d.steps[k].reps > 0:
			for _, a := range d.replicaAttempts(&d.steps[k]) {
				n += int(a) + 1
			}
		default:
			n++
		}
		for i, next := range dp.succ[flat] {
			if dead || chosen >= 0 && i != chosen {
				live[next]--
			}
		}
	}
	return n
}

// dynReqState is one request's dynamic-shape serving state, part of its
// pooled reqState: the run's pool carves both slices from its slabs at
// the run's largest sizes, and admission re-slices and re-initializes
// them for the request (runState.take).
type dynReqState struct {
	// node is indexed by flat node index.
	node []dynNode
	// attempt mirrors Request.Dyn's attempt counts: attempt[att+replica]
	// is the replica's current 0-based attempt.
	attempt []int
}

// dynNode is one node's dynamic-shape serving state.
type dynNode struct {
	// liveIn counts incoming edges not yet determined dead (the node
	// dies when it reaches zero); repsLeft counts outstanding replicas
	// (the node completes when the last replica's final attempt lands).
	liveIn, repsLeft int32
	// dead marks a pruned node. fired latches an early trigger;
	// waitingTrig marks readiness reached with the decision deferred to
	// the trigger.
	dead, fired, waitingTrig bool
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
		if !rs.dyn.node[rs.plan.base[group]+b].dead {
			anyLive = true
			break
		}
	}
	if !anyLive {
		return false
	}
	if len(members) == 1 {
		flat := rs.plan.base[group]
		if nd := &rs.dyn.node[flat]; dp.spec[flat].Await && !nd.fired {
			nd.waitingTrig = true
			return false
		}
	}
	return true
}

// armReplicas prepares a dynamic member's launch and returns how many
// replicas to start: 0 for a pruned member, the resolved width for a map
// member, 1 otherwise. The replica join starts here; the per-replica
// attempt counters start at zero in the request's overlay.
func (rs *reqState) armReplicas(group, member int) int {
	dp := rs.plan.dyn
	flat := rs.plan.base[group] + member
	if rs.dyn.node[flat].dead {
		return 0
	}
	width := 1
	if dp.spec[flat].Map != nil {
		width = int(rs.r.Dyn.steps[dp.rec[flat]].width)
	}
	rs.dyn.node[flat].repsLeft = int32(width)
	return width
}

// groupShape is the resolved-shape key of a decision group at its
// readiness instant: the live map member's drawn width ("w=3"), or ""
// when nothing in the group resolved. This is exactly the key the
// synthesizer's per-(group, resolved-shape) variant tables carry.
func (st *runState) groupShape(rs *reqState, group int) string {
	dp := rs.plan.dyn
	for b := range rs.plan.groups[group] {
		flat := rs.plan.base[group] + b
		if dp.spec[flat].Map != nil && !rs.dyn.node[flat].dead {
			return dp.shapeKeys[rs.r.Dyn.steps[dp.rec[flat]].width]
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
	nd := &rs.dyn.node[flat]
	nd.liveIn--
	if nd.liveIn > 0 || nd.dead {
		return
	}
	nd.dead = true
	loc := rs.plan.dyn.loc[flat]
	st.nodeDone(rs, loc.group, loc.member, end)
}

// fireTrigger delivers an external event to its await step: if the
// step already reached readiness the deferred decision runs now; an
// early trigger latches so the step proceeds without waiting when it
// becomes ready — before admission, in the request's trigger chain,
// which admission copies into the overlay; a trigger into a pruned
// branch, or after its request finished, only emits its event.
func (st *runState) fireTrigger(tn *tenantRun, rec *reqTrig, flat int, now time.Duration) {
	if st.failed != nil {
		return
	}
	if st.tracer != nil {
		st.tracer.Emit(obs.Event{At: now, Kind: obs.KindTrigger, Tenant: tn.name, Request: rec.r.ID,
			Reason: st.plans[rec.r.Workflow].dyn.steps[flat]})
	}
	rs := rec.rs
	if rs == nil {
		return
	}
	nd := &rs.dyn.node[flat]
	nd.fired = true
	if nd.dead || !nd.waitingTrig {
		return
	}
	nd.waitingTrig = false
	st.launchGroup(rs, rs.plan.dyn.loc[flat].group)
}
