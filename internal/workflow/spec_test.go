package workflow

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDynamicSpecRoundTrip: every dynamic kind — choice weights, bounded
// map, bounded retry, await — survives ToSpec -> JSON -> ParseSpec, and
// the rebuilt workflow behaves identically.
func TestDynamicSpecRoundTrip(t *testing.T) {
	nodes, edges := dynNodes()
	w, err := NewDynamic("trig", time.Second, nodes, edges, []DynamicNode{
		{Step: "triage", Choice: &ChoiceSpec{Weights: []float64{0.6, 0.4}}},
		{Step: "ocr", Map: &MapSpec{MaxWidth: 4, Decay: 0.5}, Retry: &RetrySpec{MaxRetries: 2, FailureProb: 0.15}},
		{Step: "gate", Await: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsDynamic() || back.Name() != "trig" || back.Len() != 7 {
		t.Fatalf("round trip lost structure: dynamic=%v name=%s len=%d", back.IsDynamic(), back.Name(), back.Len())
	}
	if got := back.DynamicSteps(); !reflect.DeepEqual(got, []string{"triage", "ocr", "gate"}) {
		t.Fatalf("DynamicSteps after round trip = %v", got)
	}
	ch, _ := back.Dynamic("triage")
	if ch.Choice == nil || !reflect.DeepEqual(ch.Choice.Weights, []float64{0.6, 0.4}) {
		t.Fatalf("choice weights lost: %+v", ch.Choice)
	}
	oc, _ := back.Dynamic("ocr")
	if oc.Map == nil || oc.Map.MaxWidth != 4 || oc.Map.Decay != 0.5 {
		t.Fatalf("map annotation lost: %+v", oc.Map)
	}
	if oc.Retry == nil || oc.Retry.MaxRetries != 2 || oc.Retry.FailureProb != 0.15 {
		t.Fatalf("retry annotation lost: %+v", oc.Retry)
	}
	ga, _ := back.Dynamic("gate")
	if !ga.Await {
		t.Fatal("await annotation lost")
	}
	// Round-tripping again is a fixed point.
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("second round trip diverged:\n%s\n%s", data, data2)
	}
}

// TestStaticSpecOmitsDynamicKey pins the wire compatibility promise: a
// static workflow's JSON has no "dynamic" key, so pre-dynamic specs and
// their consumers are untouched by the extension.
func TestStaticSpecOmitsDynamicKey(t *testing.T) {
	w := IntelligentAssistant()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "dynamic") {
		t.Fatalf("static spec JSON mentions dynamic: %s", data)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.IsDynamic() {
		t.Fatal("static round trip became dynamic")
	}
}

// TestBuildRejectsInvalidDynamic: a spec whose dynamic annotation is
// invalid fails at Build with a diagnostic naming the step.
func TestBuildRejectsInvalidDynamic(t *testing.T) {
	nodes, edges := dynNodes()
	s := Spec{
		Name: "trig", SLOMillis: 1000, Nodes: nodes, Edges: edges,
		Dynamic: []DynamicSpec{{Step: "ocr", Map: &MapSpec{MaxWidth: 0}}},
	}
	if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "ocr") {
		t.Fatalf("zero-width map spec built: %v", err)
	}
	s.Dynamic = []DynamicSpec{{Step: "ghost", Await: true}}
	if _, err := s.Build(); err == nil {
		t.Fatal("annotation on unknown step built")
	}
}

// FuzzParseSpec: ParseSpec never panics, every spec it accepts —
// dynamic kinds included — marshals to JSON that parses again and
// re-marshals byte for byte, and its stored partition, cones and shape
// predicates equal the per-call reference computations.
func FuzzParseSpec(f *testing.F) {
	nodes, edges := dynNodes()
	dyn, err := NewDynamic("trig", time.Second, nodes, edges, []DynamicNode{
		{Step: "triage", Choice: &ChoiceSpec{Weights: []float64{0.6, 0.4}}},
		{Step: "ocr", Map: &MapSpec{MaxWidth: 4, Decay: 0.5}, Retry: &RetrySpec{MaxRetries: 2, FailureProb: 0.15}},
		{Step: "gate", Await: true},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, w := range []*Workflow{IntelligentAssistant(), VideoAnalyzeSP(), dyn} {
		data, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","slo_ms":18446744073710,"functions":[{"name":"a","function":"fe"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ParseSpec(data)
		if err != nil {
			return
		}
		checkPartition(t, w)
		first, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSpec(first)
		if err != nil {
			t.Fatalf("accepted spec marshals to %s, which ParseSpec rejects: %v", first, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-parsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshal diverged:\n%s\n%s", first, second)
		}
	})
}
