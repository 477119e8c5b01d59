package platform

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"janus/internal/obs"
	"janus/internal/perfmodel"
	"janus/internal/workflow"
)

// TestStageTraceIsHalfACacheLine pins the per-stage record's layout: 32
// bytes, so two records fill one cache line, and no pointer anywhere in
// it, so the stage arena is a span the collector never scans. A field
// added back (the startup and latency it once carried cost 32 bytes)
// fails here instead of showing up later as serving RSS.
func TestStageTraceIsHalfACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(StageTrace{}); got != 32 {
		t.Fatalf("StageTrace is %d bytes, want 32", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: StageTrace must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("StageTrace", reflect.TypeOf(StageTrace{}))
}

// TestPlanRejectsCoordinatesPastStageTrace serves a fork of maxCoord+1
// members: a stage's Branch holds 16 bits, so the run must fail naming
// the group instead of tracing member 65536 as member 0.
func TestPlanRejectsCoordinatesPastStageTrace(t *testing.T) {
	nodes := []workflow.Node{{Name: "root", Function: "fe"}}
	var edges [][2]string
	for i := range maxCoord + 1 {
		name := "b" + strconv.Itoa(i)
		nodes = append(nodes, workflow.Node{Name: name, Function: "fe"})
		edges = append(edges, [2]string{"root", name})
	}
	w, err := workflow.New("wide", time.Second, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	_, err = defaultExecutor(t).Run([]*Request{{Workflow: w}}, &Fixed{System: "fixed", Sizes: []int{1000, 1000}})
	if want := "decision group 1 has 65537 members"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestTraceIs96Bytes pins the per-request record's size: a run keeps one
// Trace per request for its whole length, and a tag added back (the
// tenant and system names it once carried cost 32 bytes) fails here
// instead of showing up later as serving RSS.
func TestTraceIs96Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Trace{}); got != 96 {
		t.Fatalf("Trace is %d bytes, want 96", got)
	}
}

// TestRequestRecordSizes pins the records a request stream carries for
// a whole run, once per node and once per annotated step of every
// request: a draw holds no batch size (Request.Batch does) and a
// dynamic record no step name (its draw shape does), so a fact copied
// back into them fails here.
func TestRequestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(perfmodel.Draw{}); got != 24 {
		t.Errorf("perfmodel.Draw is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(dynStep{}); got != 8 {
		t.Errorf("dynStep is %d bytes, want 8", got)
	}
}

// TestStageCoordinatesNameTheNode checks that a stage's (Stage, Branch)
// coordinates name the node that ran: for every stage of the diamond and
// of the dynamic trigger workflow (map replicas and retries included),
// the pod release the engine traced at the stage's end — same request,
// group, member and replica — carries the function that
// w.DecisionGroups()[Stage].Nodes[Branch] names, and every release
// belongs to exactly one stage.
func TestStageCoordinatesNameTheNode(t *testing.T) {
	type release struct {
		request, group, member, replica int
		end                             time.Duration
	}
	check := func(t *testing.T, w *workflow.Workflow, traces []Trace, col *obs.Collector) (replicas, retries int) {
		t.Helper()
		released := map[release]obs.Event{}
		for _, ev := range col.Events() {
			if ev.Kind == obs.KindRelease {
				released[release{ev.Request, ev.Group, ev.Member, ev.Replica, ev.At}] = ev
			}
		}
		groups := w.DecisionGroups()
		stages := 0
		for _, tr := range traces {
			for _, st := range tr.Stages {
				stages++
				key := release{tr.RequestID, int(st.Stage), int(st.Branch), int(st.Replica), st.End}
				ev, ok := released[key]
				if !ok {
					t.Fatalf("request %d stage %+v has no release event", tr.RequestID, st)
				}
				if want := groups[st.Stage].Nodes[st.Branch].Function; ev.Function != want {
					t.Fatalf("request %d stage (%d, %d) released %s, its coordinates name %s",
						tr.RequestID, st.Stage, st.Branch, ev.Function, want)
				}
				if ev.Value != int64(st.Millicores) || ev.Aux != int64(st.Node) {
					t.Fatalf("request %d stage (%d, %d) released %d mc on node %d, trace says %d mc on node %d",
						tr.RequestID, st.Stage, st.Branch, ev.Value, ev.Aux, st.Millicores, st.Node)
				}
				if st.Replica > 0 {
					replicas++
				}
				if st.Attempt > 0 {
					retries++
				}
			}
		}
		if stages != len(released) {
			t.Fatalf("%d stages traced, %d distinct releases", stages, len(released))
		}
		return replicas, retries
	}

	t.Run("diamond", func(t *testing.T) {
		w := diamondSP(t)
		e, col := tracedExecutor(t)
		traces, err := e.Run(spWorkload(t, w, 40), &Fixed{System: "fixed", Sizes: []int{2000, 2000, 2000}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, w, traces, col)
	})
	t.Run("trigger", func(t *testing.T) {
		w := trigWorkflow(t)
		reqs := trigWorkload(t, w, 120)
		e, col := tracedExecutor(t)
		traces, _, err := e.RunReplay(
			[]TenantWorkload{{Requests: reqs, Allocator: &Fixed{System: "fixed", Sizes: trigSizes}}},
			ReplayConfig{Interval: 100 * time.Millisecond, Triggers: gateTriggers(reqs, "", 120*time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		if replicas, retries := check(t, w, traces[""], col); replicas == 0 || retries == 0 {
			t.Fatalf("served %d later map replicas and %d retries, want both", replicas, retries)
		}
	})
}
