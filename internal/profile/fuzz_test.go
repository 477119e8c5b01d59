package profile_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"janus/internal/experiment"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/profile"
	"janus/internal/workflow"
)

// FuzzParseSet feeds profile-set files to ParseSet, the decoder behind
// `janusctl synthesize -profiles`. It must never panic, and a set it
// accepts must marshal, parse back and marshal to the same bytes, shape
// variants included. The seeds are the ia chain, the va-sp fork-join and
// the dynamic trigger-ml workflow profiled at 100 samples, each also cut
// in half; the va-sp set with two profiles swapped; and the trigger-ml
// set with its map group's base profile named for the bare group instead
// of its widest variant.
func FuzzParseSet(f *testing.F) {
	trig, err := experiment.TriggerWorkflow()
	if err != nil {
		f.Fatal(err)
	}
	coloc, err := interfere.NewCountSampler([]float64{0.5, 0.35, 0.15})
	if err != nil {
		f.Fatal(err)
	}
	p, err := profile.NewProfiler(perfmodel.Catalog(), coloc, interfere.Default(), 1)
	if err != nil {
		f.Fatal(err)
	}
	p.SamplesPerConfig = 100
	sp := workflow.VideoAnalyzeSP()
	for _, w := range []*workflow.Workflow{workflow.IntelligentAssistant(), sp, trig} {
		set, err := p.ProfileWorkflow(w, 1)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(set)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		switch w {
		case trig:
			f.Add(bytes.Replace(data, []byte(`"function":"ts@w=6"`), []byte(`"function":"ts"`), 1))
		case sp:
			set.Profiles[0], set.Profiles[1] = set.Profiles[1], set.Profiles[0]
			swapped, err := json.Marshal(set)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(swapped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := profile.ParseSet(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(set)
		if err != nil {
			t.Fatalf("accepted set does not marshal: %v", err)
		}
		back, err := profile.ParseSet(first)
		if err != nil {
			t.Fatalf("re-marshaled set rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("set does not round-trip:\n%s\n%s", first, second)
		}
	})
}
