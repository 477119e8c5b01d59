package hints

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// tableAlias has Table's fields and tags but none of its methods, so
// encoding/json decodes it field by field rather than calling
// Table.UnmarshalJSON again.
type tableAlias Table

// UnmarshalJSON decodes a table. Ranges are nearly all of a catalog's
// bytes, so a table whose fields come in the order encoding/json writes
// them, with any JSON whitespace between tokens (json.Marshal and
// json.MarshalIndent output both qualify), is decoded here in one pass
// into a Ranges slice allocated once. Every other input goes to
// encoding/json unchanged, so what is accepted and what it decodes to
// are encoding/json's.
func (t *Table) UnmarshalJSON(data []byte) error {
	if t.decodeDirect(data) {
		return nil
	}
	return json.Unmarshal(data, (*tableAlias)(t))
}

// decodeDirect decodes data into t if data is a table in encoding/json's
// field order, and reports whether it did. It accepts only text that
// encoding/json would decode to the same table, and writes t only on
// success, so a false return leaves the whole input to encoding/json.
func (t *Table) decodeDirect(data []byte) bool {
	s := tableScanner{data: data}
	s.member('{', `"workflow"`)
	out := Table{Workflow: s.str()}
	s.member(',', `"suffix"`)
	out.Suffix = s.int()
	s.member(',', `"batch"`)
	out.Batch = s.int()
	s.member(',', `"weight"`)
	out.Weight = s.float()
	s.member(',', `"ranges"`)
	out.Ranges = s.ranges()
	s.tok('}')
	if s.ws(); s.bad || s.i != len(data) {
		return false
	}
	*t = out
	return true
}

// tableScanner walks the JSON text of one table. Each method skips the
// whitespace before its token; a token that is not there sets bad, which
// sticks, so a decode reads straight through and checks bad once.
type tableScanner struct {
	data []byte
	i    int
	bad  bool
}

// ws skips JSON whitespace.
func (s *tableScanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes the one-byte token c if it comes next, and reports
// whether it did.
func (s *tableScanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// tok consumes the one-byte token c, setting bad if c is not next.
func (s *tableScanner) tok(c byte) {
	if !s.next(c) {
		s.bad = true
	}
}

// member consumes the delimiter before a member, the member's name
// exactly as encoding/json writes it, and the colon after it.
func (s *tableScanner) member(delim byte, name string) {
	s.tok(delim)
	s.ws()
	if len(s.data)-s.i < len(name) || string(s.data[s.i:s.i+len(name)]) != name {
		s.bad = true
		return
	}
	s.i += len(name)
	s.tok(':')
}

// str reads a string with no escapes and no control characters whose
// bytes are valid UTF-8: encoding/json decodes exactly such a string to
// its own bytes. Any other string is left to encoding/json.
func (s *tableScanner) str() string {
	s.tok('"')
	start, ascii := s.i, true
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			b := s.data[start:s.i]
			s.i++
			if ascii || utf8.Valid(b) {
				return string(b)
			}
			s.bad = true
			return ""
		case c == '\\' || c < ' ':
			s.bad = true
			return ""
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.bad = true
	return ""
}

// digits skips a run of decimal digits and returns its length.
func (s *tableScanner) digits() int {
	start := s.i
	for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// intPart skips JSON's integer grammar, an optional minus sign and
// digits without a leading zero, and returns the sign and the digits.
func (s *tableScanner) intPart() (neg bool, digits []byte) {
	s.ws()
	neg = s.i < len(s.data) && s.data[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	if n := s.digits(); n == 0 || n > 1 && s.data[start] == '0' {
		s.bad = true
	}
	return neg, s.data[start:s.i]
}

// int reads an integer that fits an int, the only number text
// encoding/json decodes into an int field; fractions, exponents and
// overflow are left to encoding/json, which rejects them.
func (s *tableScanner) int() int {
	neg, digits := s.intPart()
	// 19 digits cannot overflow a uint64.
	if len(digits) > 19 {
		s.bad = true
		return 0
	}
	var u uint64
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case !neg && u <= math.MaxInt:
		return int(u)
	case neg && u <= -math.MinInt:
		return int(-u)
	}
	s.bad = true
	return 0
}

// float reads a number in JSON's grammar and converts it as
// encoding/json does, with strconv.ParseFloat on the same text.
func (s *tableScanner) float() float64 {
	s.ws()
	start := s.i
	s.intPart()
	if s.i < len(s.data) && s.data[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			s.bad = true
		}
	}
	if s.i < len(s.data) && (s.data[s.i] == 'e' || s.data[s.i] == 'E') {
		s.i++
		if s.i < len(s.data) && (s.data[s.i] == '+' || s.data[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.bad = true
		}
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.i]), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// ranges reads the ranges array, or null. Ranges is the table's last
// member, so every '{' left in the text opens one range: counting them
// sizes the slice before the first is decoded.
func (s *tableScanner) ranges() []Range {
	if s.bad {
		return nil
	}
	if s.ws(); bytes.HasPrefix(s.data[s.i:], []byte("null")) {
		s.i += len("null")
		return nil
	}
	s.tok('[')
	out := make([]Range, 0, bytes.Count(s.data[s.i:], []byte("{")))
	if s.next(']') {
		return out
	}
	for !s.bad {
		var r Range
		s.member('{', `"start_ms"`)
		r.StartMs = s.int()
		s.member(',', `"end_ms"`)
		r.EndMs = s.int()
		s.member(',', `"millicores"`)
		r.Millicores = s.int()
		s.member(',', `"percentile"`)
		r.Percentile = s.int()
		s.tok('}')
		out = append(out, r)
		if s.next(']') {
			return out
		}
		s.tok(',')
	}
	return nil
}
