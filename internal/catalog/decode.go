package catalog

import (
	"encoding/json"
	"fmt"

	"janus/internal/hints"
	"janus/internal/jsonscan"
)

// Decode decodes a catalog file without validating it, for a caller
// that hands the file straight to Registry.Load, which validates every
// catalog it installs; Parse is Decode followed by Validate. A file in
// encoding/json's own form — compact or indented, members in struct
// order and each at most once, no escaped strings, no declared workflow
// spec — is decoded in one pass, which is what every catalog
// json.Marshal or File.Marshal writes. Map keys decode as encoding/json
// decodes them, a repeated one keeping its last value. Every other input
// goes to json.Unmarshal unchanged, so what is accepted and what it
// decodes to are encoding/json's.
func Decode(data []byte) (*File, error) {
	s := jsonscan.New(data)
	f := new(File)
	f.decodeFrom(s)
	if s.End() {
		return f, nil
	}
	f = new(File)
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("catalog: invalid JSON: %w", err)
	}
	return f, nil
}

var (
	fileFields   = []string{"version", "admin_key", "tenants"}
	tenantFields = []string{"api_key", "quota", "workflows"}
	quotaFields  = []string{"rate_per_sec", "burst"}
	// entryFields leaves out "workflow": a declared spec is rare and is
	// decoded by encoding/json.
	entryFields = []string{"bundle"}
)

func (f *File) decodeFrom(s *jsonscan.Scanner) {
	s.Fields(fileFields, func(i int) {
		switch i {
		case 0:
			f.Version = s.Int()
		case 1:
			f.AdminKey = s.Str()
		case 2:
			f.Tenants = map[string]*Tenant{}
			s.Keys(func(name string) {
				t := new(Tenant)
				t.decodeFrom(s)
				f.Tenants[name] = t
			})
		}
	})
}

func (t *Tenant) decodeFrom(s *jsonscan.Scanner) {
	s.Fields(tenantFields, func(i int) {
		switch i {
		case 0:
			t.APIKey = s.Str()
		case 1:
			t.Quota = new(Quota)
			s.Fields(quotaFields, func(i int) {
				if i == 0 {
					t.Quota.RatePerSec = s.Float()
				} else {
					t.Quota.Burst = s.Int()
				}
			})
		case 2:
			t.Workflows = map[string]*Entry{}
			s.Keys(func(wf string) {
				e := new(Entry)
				s.Fields(entryFields, func(int) {
					e.Bundle = new(hints.Bundle)
					e.Bundle.DecodeFrom(s)
				})
				t.Workflows[wf] = e
			})
		}
	})
}
