package profile

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"janus/internal/workflow"
)

// setSpec is the wire form of a Set. Shaped is omitted for a static
// workflow, whose wire form is unchanged by it.
type setSpec struct {
	Workflow workflow.Spec                       `json:"workflow"`
	Batch    int                                 `json:"batch"`
	Profiles []*FunctionProfile                  `json:"profiles"`
	Shaped   map[int]map[string]*FunctionProfile `json:"shaped,omitempty"`
}

// MarshalJSON encodes the set with its workflow spec. Raw samples are not
// part of the wire form; a parsed set supports everything except Sample.
func (s *Set) MarshalJSON() ([]byte, error) {
	return json.Marshal(setSpec{
		Workflow: s.Workflow.ToSpec(),
		Batch:    s.Batch,
		Profiles: s.Profiles,
		Shaped:   s.Shaped,
	})
}

// ParseSet decodes and validates a serialized profile set. Every profile
// must be named for its decision group as ProfileWorkflow names it: a map
// group's base profile after its widest variant ("ts@w=6"), and each of
// its shape variants after the width its key names.
func ParseSet(data []byte) (*Set, error) {
	var spec setSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("profile: invalid set JSON: %w", err)
	}
	w, err := spec.Workflow.Build()
	if err != nil {
		return nil, err
	}
	groups := w.DecisionGroups()
	if len(spec.Profiles) != len(groups) {
		return nil, fmt.Errorf("profile: set has %d profiles for %d decision groups", len(spec.Profiles), len(groups))
	}
	for i, fp := range spec.Profiles {
		if fp == nil {
			return nil, fmt.Errorf("profile: set profile %d missing", i)
		}
		if err := fp.init(); err != nil {
			return nil, err
		}
		want := GroupProfileName(groups[i].Nodes)
		if _, width := groupMap(w, groups[i]); width > 1 {
			want += "@" + workflow.ShapeKey(width)
		}
		if fp.Function != want {
			return nil, fmt.Errorf("profile: set profile %d is for %q, group wants %q", i, fp.Function, want)
		}
	}
	for g, shapes := range spec.Shaped {
		if g < 0 || g >= len(groups) {
			return nil, fmt.Errorf("profile: shaped profiles for group %d, set has %d groups", g, len(groups))
		}
		_, width := groupMap(w, groups[g])
		if width == 1 {
			return nil, fmt.Errorf("profile: shaped profiles for group %d, which has no map", g)
		}
		for key, fp := range shapes {
			v, err := strconv.Atoi(strings.TrimPrefix(key, "w="))
			if err != nil || v < 1 || v > width || workflow.ShapeKey(v) != key {
				return nil, fmt.Errorf("profile: group %d shape %q is not one of w=1..w=%d", g, key, width)
			}
			if fp == nil {
				return nil, fmt.Errorf("profile: group %d shape %q profile missing", g, key)
			}
			if err := fp.init(); err != nil {
				return nil, err
			}
			if want := GroupProfileName(groups[g].Nodes) + "@" + key; fp.Function != want {
				return nil, fmt.Errorf("profile: group %d shape %q profile is for %q, want %q", g, key, fp.Function, want)
			}
		}
	}
	return &Set{Workflow: w, Batch: spec.Batch, Profiles: spec.Profiles, Shaped: spec.Shaped}, nil
}
