package hints

import (
	"encoding/json"
	"strconv"

	"janus/internal/jsonscan"
)

// tableAlias has Table's fields and tags but none of its methods, so
// encoding/json decodes it field by field rather than calling
// Table.UnmarshalJSON again.
type tableAlias Table

// UnmarshalJSON decodes a table. Ranges are nearly all of a catalog's
// bytes, so a table in encoding/json's own form, with any JSON
// whitespace between tokens (json.Marshal and json.MarshalIndent output
// both qualify), is decoded here in one pass into a Ranges slice
// allocated once. Every other input goes to encoding/json unchanged, so
// what is accepted and what it decodes to are encoding/json's.
func (t *Table) UnmarshalJSON(data []byte) error {
	if t.decodeDirect(data) {
		return nil
	}
	return json.Unmarshal(data, (*tableAlias)(t))
}

// decodeDirect decodes data into t if data is a table in encoding/json's
// form, and reports whether it did. Like encoding/json it leaves the
// fields of absent members as they were. It writes t only on success, so
// a false return leaves the whole input to encoding/json.
func (t *Table) decodeDirect(data []byte) bool {
	s := jsonscan.New(data)
	out := *t
	out.decodeFrom(s)
	if !s.End() {
		return false
	}
	*t = out
	return true
}

var tableFields = []string{"workflow", "suffix", "batch", "weight", "ranges"}

// decodeFrom decodes the table at the scanner into t.
func (t *Table) decodeFrom(s *jsonscan.Scanner) {
	s.Fields(tableFields, func(i int) {
		switch i {
		case 0:
			t.Workflow = s.Str()
		case 1:
			t.Suffix = s.Int()
		case 2:
			t.Batch = s.Int()
		case 3:
			t.Weight = s.Float()
		case 4:
			t.Ranges = decodeRanges(s)
		}
	})
}

// decodeRanges reads a ranges array, or null. A range holds no array,
// so every '{' before the array's ']' opens one range: counting them
// sizes the slice before the first is decoded.
func decodeRanges(s *jsonscan.Scanner) []Range {
	if s.Null() {
		return nil
	}
	s.Tok('[')
	out := make([]Range, 0, s.Count('{', ']'))
	if s.Next(']') {
		return out
	}
	for s.OK() {
		var r Range
		s.Member('{', `"start_ms"`)
		r.StartMs = s.Int()
		s.Member(',', `"end_ms"`)
		r.EndMs = s.Int()
		s.Member(',', `"millicores"`)
		r.Millicores = s.Int()
		s.Member(',', `"percentile"`)
		r.Percentile = s.Int()
		s.Tok('}')
		out = append(out, r)
		if s.Next(']') {
			return out
		}
		s.Tok(',')
	}
	return nil
}

var bundleFields = []string{"workflow", "batch", "weight", "slo_ms", "max_millicores", "tables", "shaped"}

// DecodeFrom decodes the bundle at the scanner into b, for a document
// that embeds bundles (a catalog file) and decodes in one pass. Shaped
// keys parse as encoding/json parses them, so "1", "01" and "+1" are
// one group, and a repeated key keeps its last value, as encoding/json
// keeps it. A null anywhere but a table's ranges fails the scan. On
// failure the caller discards b and falls back to encoding/json.
func (b *Bundle) DecodeFrom(s *jsonscan.Scanner) {
	s.Fields(bundleFields, func(i int) {
		switch i {
		case 0:
			b.Workflow = s.Str()
		case 1:
			b.Batch = s.Int()
		case 2:
			b.Weight = s.Float()
		case 3:
			b.SLOMs = s.Int()
		case 4:
			b.MaxMillicores = s.Int()
		case 5:
			b.Tables = []*Table{}
			s.Elems(func() {
				t := new(Table)
				t.decodeFrom(s)
				b.Tables = append(b.Tables, t)
			})
		case 6:
			b.Shaped = map[int]map[string]*Table{}
			s.Keys(func(key string) {
				g, err := strconv.Atoi(key)
				if err != nil {
					s.Fail()
					return
				}
				variants := map[string]*Table{}
				b.Shaped[g] = variants
				s.Keys(func(shape string) {
					t := new(Table)
					t.decodeFrom(s)
					variants[shape] = t
				})
			})
		}
	})
}
