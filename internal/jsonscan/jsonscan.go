// Package jsonscan reads JSON text in the form encoding/json writes it,
// for decoders that take one direct pass over that form and hand every
// other input to encoding/json unchanged. hints.Table and hints.Bundle,
// the catalog file and the decide request are decoded through it.
//
// The scanner accepts only text whose encoding/json decoding it can
// reproduce exactly: members named exactly as the struct tags spell
// them, in struct order and each at most once; strings with no escapes
// or control characters whose bytes are valid UTF-8; integers without
// fractions or exponents that fit an int. A token that is not there
// sets a sticky failure, so a decoder reads straight through and checks
// OK once; on failure its caller discards what was decoded and falls
// back to encoding/json, which then decides what is accepted and what
// it decodes to.
package jsonscan

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"
)

// Scanner walks one JSON text.
type Scanner struct {
	data []byte
	i    int
	bad  bool
}

// New returns a scanner at the start of data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// Fail marks the text as outside the direct form, for checks only the
// caller can make (a map key that is not a number).
func (s *Scanner) Fail() { s.bad = true }

// OK reports whether every token so far was in the direct form.
func (s *Scanner) OK() bool { return !s.bad }

// End reports whether every token was in the direct form and nothing
// but whitespace follows the last one.
func (s *Scanner) End() bool {
	s.ws()
	return !s.bad && s.i == len(s.data)
}

// ws skips JSON whitespace.
func (s *Scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// Next consumes the one-byte token c if it comes next, and reports
// whether it did.
func (s *Scanner) Next(c byte) bool {
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// Tok consumes the one-byte token c, failing if c is not next.
func (s *Scanner) Tok(c byte) {
	if !s.Next(c) {
		s.bad = true
	}
}

// Null consumes a null literal if one comes next, and reports whether
// it did.
func (s *Scanner) Null() bool {
	if s.ws(); s.bad || !bytes.HasPrefix(s.data[s.i:], []byte("null")) {
		return false
	}
	s.i += len("null")
	return true
}

// Member consumes the delimiter before a member, the member's quoted
// name exactly as encoding/json writes it, and the colon after it: the
// fixed-order, every-member-present form of a small hot object.
func (s *Scanner) Member(delim byte, quoted string) {
	s.Tok(delim)
	s.ws()
	if !bytes.HasPrefix(s.data[s.i:], []byte(quoted)) {
		s.bad = true
		return
	}
	s.i += len(quoted)
	s.Tok(':')
}

// Fields walks an object whose member names must come from names, in
// that order and each at most once; members may be absent, as
// encoding/json leaves an absent member's field untouched. For each
// member it calls decode with the name's index, with the scanner at the
// member's value. Any other name, a repeat or a name out of order fails
// the scan.
func (s *Scanner) Fields(names []string, decode func(i int)) {
	s.Tok('{')
	if s.Next('}') {
		return
	}
	next := 0
	for !s.bad {
		name := s.raw()
		i := next
		for i < len(names) && names[i] != string(name) {
			i++
		}
		if i == len(names) {
			s.bad = true
			return
		}
		next = i + 1
		s.Tok(':')
		decode(i)
		if s.Next('}') {
			return
		}
		s.Tok(',')
	}
}

// Keys walks an object decoded as a map, calling decode with each key,
// with the scanner at the key's value. Keys obey Str's rule. A caller
// that decodes each value into a fresh element and stores it under its
// key keeps the last of a repeated key's values, as encoding/json does.
func (s *Scanner) Keys(decode func(key string)) {
	s.Tok('{')
	if s.Next('}') {
		return
	}
	for !s.bad {
		key := s.Str()
		s.Tok(':')
		decode(key)
		if s.Next('}') {
			return
		}
		s.Tok(',')
	}
}

// Elems walks an array, calling decode with the scanner at each
// element.
func (s *Scanner) Elems(decode func()) {
	s.Tok('[')
	if s.Next(']') {
		return
	}
	for !s.bad {
		decode()
		if s.Next(']') {
			return
		}
		s.Tok(',')
	}
}

// Count reports how often c occurs between the scanner and the next
// stop byte, or fails the scan when no stop byte follows. An array of
// flat objects sizes its slice this way before decoding the first.
func (s *Scanner) Count(c, stop byte) int {
	n := bytes.IndexByte(s.data[s.i:], stop)
	if n < 0 {
		s.bad = true
		return 0
	}
	return bytes.Count(s.data[s.i:s.i+n], []byte{c})
}

// raw reads a string with no escapes and no control characters and
// returns its bytes, which alias the text.
func (s *Scanner) raw() []byte {
	s.Tok('"')
	for start := s.i; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1]
		case c == '\\' || c < ' ':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// Str reads a string with no escapes and no control characters whose
// bytes are valid UTF-8: encoding/json decodes exactly such a string to
// its own bytes.
func (s *Scanner) Str() string {
	b := s.raw()
	if s.bad || !utf8.Valid(b) {
		s.bad = true
		return ""
	}
	return string(b)
}

// digits skips a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.i
	for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// intPart skips JSON's integer grammar, an optional minus sign and
// digits without a leading zero, and returns the sign and the digits.
func (s *Scanner) intPart() (neg bool, digits []byte) {
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

// Int reads an integer that fits an int, the only number text
// encoding/json decodes into an int field; fractions, exponents and
// overflow are left to encoding/json, which rejects them.
func (s *Scanner) Int() int {
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

// Float reads a number in JSON's grammar and converts it as
// encoding/json does, with strconv.ParseFloat on the same text.
func (s *Scanner) Float() float64 {
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
