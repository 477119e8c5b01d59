package platform

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"janus/internal/cluster"
	"janus/internal/perfmodel"
)

// stepAllocator is a deterministic allocator whose decision is a pure
// function of (group, millisecond-floored remaining budget) within an
// epoch — the MemoizableAllocator contract — with its own bookkeeping so
// tests can compare recorded side effects between memoized and
// unmemoized serving. Epoch 1 flips the decision function, modeling a
// hot-swapped bundle.
type stepAllocator struct {
	epoch   int64
	calls   int // Allocate invocations (memoized runs make fewer)
	records int // decisions recorded, cached or not
	budgets []time.Duration
}

func (s *stepAllocator) Name() string { return "step" }

func (s *stepAllocator) decide(group int, remaining time.Duration) (int, bool) {
	ms := int64(remaining / time.Millisecond)
	if ms < 0 {
		ms = -ms // requests past their deadline still get an allocation
	}
	mc := 500 + int(ms%7)*250 + group*100
	if s.epoch > 0 {
		mc += 1000
	}
	return mc, ms%3 != 0
}

func (s *stepAllocator) Allocate(req *Request, group int, remaining time.Duration) (int, bool) {
	s.calls++
	s.records++
	s.budgets = append(s.budgets, remaining)
	return s.decide(group, remaining)
}

func (s *stepAllocator) AllocEpoch() int64 { return s.epoch }

func (s *stepAllocator) RecordCached(group int, remaining time.Duration, epoch int64, hit bool) {
	s.records++
	s.budgets = append(s.budgets, remaining)
}

// plainStep forwards to a stepAllocator without embedding it, so none of
// the memo-contract methods are promoted and the platform serves it
// unmemoized.
type plainStep struct{ s *stepAllocator }

func (p plainStep) Name() string { return p.s.Name() }

func (p plainStep) Allocate(req *Request, group int, remaining time.Duration) (int, bool) {
	return p.s.Allocate(req, group, remaining)
}

var _ MemoizableAllocator = (*stepAllocator)(nil)
var _ Allocator = plainStep{}

// TestMemoizedServingMatchesUnmemoized serves the identical workload
// through the same decision function twice — once with the memo engaged,
// once with it hidden — and requires byte-identical traces plus identical
// recorded budgets: the memo may only skip redundant decision
// computation, never change an observable. Besides the default cluster,
// two cases reach the edges of a memo row: an overloaded single node,
// where requests run past their deadline and decide on negative budgets,
// and an SLO past the row cap, where early decisions fall outside the
// row and later ones inside it. A third flips the allocator's epoch
// mid-run, so a memo entry outliving its epoch would diverge.
func TestMemoizedServingMatchesUnmemoized(t *testing.T) {
	overloaded := func(t *testing.T) *Executor {
		cfg := DefaultExecutorConfig()
		cfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: 4000, PoolSize: 1, IdleMillicores: 100}
		e, err := NewExecutor(cfg, perfmodel.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	pastCap := func(t *testing.T) []*Request {
		reqs := iaWorkload(t, 300)
		w, err := reqs[0].Workflow.WithSLO(memoCapMs*time.Millisecond + 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			r.Workflow = w
		}
		return reqs
	}
	ia300 := func(t *testing.T) []*Request { return iaWorkload(t, 300) }
	cases := []struct {
		name     string
		executor func(*testing.T) *Executor
		workload func(*testing.T) []*Request
		// edge, when set, must hold for some recorded budget, so the case
		// provably reaches the row edge it names.
		edge func(time.Duration) bool
		// flipAt, when positive, is the instant the allocator moves to
		// epoch 1.
		flipAt time.Duration
	}{
		{"default", defaultExecutor, ia300, nil, 0},
		{"overloaded", overloaded, ia300, func(b time.Duration) bool { return b < 0 }, 0},
		{"slo past row cap", defaultExecutor, pastCap, func(b time.Duration) bool { return b > memoCapMs*time.Millisecond }, 0},
		{"epoch flip", defaultExecutor, ia300, nil, 50 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(alloc Allocator, s *stepAllocator) []Trace {
				st, err := tc.executor(t).prepareRun([]TenantWorkload{{Requests: tc.workload(t), Allocator: alloc}}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if tc.flipAt > 0 {
					st.engine.ScheduleAt(tc.flipAt, func(time.Duration) { s.epoch = 1 })
				}
				st.engine.Run()
				traces, err := st.collect()
				if err != nil {
					t.Fatal(err)
				}
				return traces[""]
			}
			memoed, plain := &stepAllocator{}, &stepAllocator{}
			got, want := serve(memoed, memoed), serve(plainStep{plain}, plain)
			if tc.edge != nil && !slices.ContainsFunc(plain.budgets, tc.edge) {
				t.Fatal("no recorded budget reached the case's memo-row edge")
			}
			if memoed.calls >= plain.calls {
				t.Fatalf("memo never engaged: %d calls memoized vs %d unmemoized", memoed.calls, plain.calls)
			}
			if memoed.records != plain.records {
				t.Fatalf("recorded decisions diverged: %d memoized, %d unmemoized", memoed.records, plain.records)
			}
			if !reflect.DeepEqual(memoed.budgets, plain.budgets) {
				t.Fatal("recorded budget sequences diverged")
			}
			if len(got) != len(want) {
				t.Fatalf("trace counts diverged: %d vs %d", len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("trace %d diverged:\nmemoized   %+v\nunmemoized %+v", i, g, w)
				}
			}
		})
	}
}

// TestMemoClearedOnEpochChange flips the allocator's epoch mid-run (a
// hot-swapped bundle) and requires post-flip decisions to come from the
// new decision function, not stale memo entries.
func TestMemoClearedOnEpochChange(t *testing.T) {
	reqs := iaWorkload(t, 200)
	flip := &stepAllocator{}
	e := defaultExecutor(t)
	st, err := e.prepareRun([]TenantWorkload{{Requests: reqs, Allocator: flip}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.engine.ScheduleAt(reqs[100].Arrival, func(time.Duration) { flip.epoch = 1 })
	st.engine.Run()
	traces, err := st.collect()
	if err != nil {
		t.Fatal(err)
	}
	sawNew := false
	for _, tr := range traces[""] {
		for _, stg := range tr.Stages {
			if stg.Millicores >= 1500 {
				sawNew = true
			}
		}
	}
	if !sawNew {
		t.Fatal("no post-epoch-flip allocation observed; memo served stale decisions")
	}
	// Replaying the run with the same flip must stay deterministic.
	flip2 := &stepAllocator{}
	st2, err := defaultExecutor(t).prepareRun([]TenantWorkload{{Requests: iaWorkload(t, 200), Allocator: flip2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2.engine.ScheduleAt(reqs[100].Arrival, func(time.Duration) { flip2.epoch = 1 })
	st2.engine.Run()
	traces2, err := st2.collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traces[""], traces2[""]) {
		t.Fatal("epoch-flip run not deterministic across replays")
	}
}
