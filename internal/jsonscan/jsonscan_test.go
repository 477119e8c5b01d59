package jsonscan

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// TestFieldsOrderRepeatsAndAbsence pins Fields' member rule: names as
// the struct tags spell them, in tag order, each at most once, any of
// them absent.
func TestFieldsOrderRepeatsAndAbsence(t *testing.T) {
	names := []string{"a", "b", "c"}
	for _, c := range []struct {
		in   string
		ok   bool
		seen []int
	}{
		{`{"a":1,"b":2,"c":3}`, true, []int{0, 1, 2}},
		{` { "a" : 1 , "c" : 3 } `, true, []int{0, 2}},
		{`{"b":2}`, true, []int{1}},
		{`{}`, true, nil},
		{`{"b":2,"a":1}`, false, []int{1}},
		{`{"a":1,"a":2}`, false, []int{0}},
		{`{"a":1,"d":4}`, false, []int{0}},
		{`{"A":1}`, false, nil},
		{`{"a":1,}`, false, []int{0}},
		{`{"a":1 "b":2}`, false, []int{0}},
		{`{"a"1}`, false, []int{0}},
		{`{"a":1`, false, []int{0}},
	} {
		s := New([]byte(c.in))
		var seen []int
		s.Fields(names, func(i int) {
			seen = append(seen, i)
			s.Int()
		})
		if s.End() != c.ok || !reflect.DeepEqual(seen, c.seen) {
			t.Errorf("Fields(%s): End() = %v, members %v; want %v, %v", c.in, s.End(), seen, c.ok, c.seen)
		}
	}
}

// TestMemberFixedForm pins Member: the delimiter, the quoted name exactly
// as encoding/json writes it, then a colon.
func TestMemberFixedForm(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`{"a":1,"b":2}`, true},
		{`{ "a" : 1 , "b" : 2 }`, true},
		{`{"b":2,"a":1}`, false},
		{`{"a":1}`, false},
		{`{"a":1,"bb":2}`, false},
		{`["a":1,"b":2}`, false},
	} {
		s := New([]byte(c.in))
		s.Member('{', `"a"`)
		a := s.Int()
		s.Member(',', `"b"`)
		b := s.Int()
		s.Tok('}')
		if s.End() != c.ok || c.ok && (a != 1 || b != 2) {
			t.Errorf("Member(%s): End() = %v, a = %d, b = %d; want %v", c.in, s.End(), a, b, c.ok)
		}
	}
}

// TestKeysKeepEveryValue pins Keys: each key under Str's rule, repeats
// included, so a caller storing each value under its key keeps the
// last, as encoding/json does.
func TestKeysKeepEveryValue(t *testing.T) {
	s := New([]byte(`{"x":1,"y":2,"x":3}`))
	got := map[string]int{}
	s.Keys(func(key string) { got[key] = s.Int() })
	var want map[string]int
	if err := json.Unmarshal([]byte(`{"x":1,"y":2,"x":3}`), &want); err != nil {
		t.Fatal(err)
	}
	if !s.End() || !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys decoded %v (End %v), encoding/json %v", got, s.End(), want)
	}
	for _, in := range []string{`{"\u0078":1}`, "{\"a\tb\":1}", "{\"\xff\":1}", `{x:1}`} {
		s := New([]byte(in))
		s.Keys(func(string) { s.Int() })
		if s.End() {
			t.Errorf("Keys(%q) accepted a key outside Str's rule", in)
		}
	}
}

// TestElemsAndNull walks arrays, empty and not, and null literals.
func TestElemsAndNull(t *testing.T) {
	s := New([]byte(` [ 1 , 2,3 ] `))
	var got []int
	s.Elems(func() { got = append(got, s.Int()) })
	if !s.End() || !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Elems decoded %v, End %v", got, s.End())
	}
	s = New([]byte(`[]`))
	s.Elems(func() { t.Fatal("decode called on an empty array") })
	if !s.End() {
		t.Fatal("empty array failed")
	}
	for _, in := range []string{`[1,]`, `[1 2]`, `[1`} {
		s := New([]byte(in))
		s.Elems(func() { s.Int() })
		if s.End() {
			t.Errorf("Elems(%s) accepted", in)
		}
	}
	if s := New([]byte(` null`)); !s.Null() || !s.End() {
		t.Error("null not read")
	}
	if s := New([]byte(`nul`)); s.Null() || s.End() {
		t.Error("a truncated null read as null")
	}
	if s := New([]byte(`7`)); s.Null() || s.Int() != 7 || !s.End() {
		t.Error("Null consumed a value that is not null")
	}
}

// TestStrRule pins Str: no escapes, no control characters, valid UTF-8,
// and then the decoded string is the text's own bytes, as encoding/json
// decodes it.
func TestStrRule(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`"plain"`, true},
		{`""`, true},
		{`"é ∑ 日本"`, true},
		{`"a\"b"`, false},
		{`"a\\b"`, false},
		{`"\u00e9"`, false},
		{`"a\nb"`, false},
		{"\"a\nb\"", false},
		{"\"a\x1fb\"", false},
		{"\"a\x7fb\"", true},
		{"\"\xff\"", false},
		{"\"\xc3\"", false},
		{"\"\xed\xa0\x80\"", false},
		{`"open`, false},
		{`plain`, false},
	} {
		s := New([]byte(c.in))
		got := s.Str()
		if s.End() != c.ok {
			t.Errorf("Str(%q): End() = %v, want %v", c.in, s.End(), c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		var want string
		if err := json.Unmarshal([]byte(c.in), &want); err != nil || got != want {
			t.Errorf("Str(%q) = %q, encoding/json %q (%v)", c.in, got, want, err)
		}
	}
}

// TestIntRule pins Int: JSON's integer grammar (no leading zero, "-0"
// allowed), no fraction or exponent, and a value that fits an int — the
// bounds included, one past either excluded.
func TestIntRule(t *testing.T) {
	maxInt, minInt := strconv.Itoa(math.MaxInt), strconv.Itoa(math.MinInt)
	for _, c := range []struct {
		in   string
		ok   bool
		want int
	}{
		{`0`, true, 0},
		{`-0`, true, 0},
		{`42`, true, 42},
		{` -17 `, true, -17},
		{maxInt, true, math.MaxInt},
		{minInt, true, math.MinInt},
		{`9223372036854775808`, false, 0},
		{`-9223372036854775809`, false, 0},
		{`18446744073709551616`, false, 0},
		{`99999999999999999999`, false, 0},
		{`01`, false, 0},
		{`-01`, false, 0},
		{`00`, false, 0},
		{`+1`, false, 0},
		{`-`, false, 0},
		{``, false, 0},
		{`1.5`, false, 0},
		{`1e3`, false, 0},
		{`"1"`, false, 0},
	} {
		s := New([]byte(c.in))
		got := s.Int()
		if s.End() != c.ok || c.ok && got != c.want {
			t.Errorf("Int(%q) = %d, End() = %v; want %d, %v", c.in, got, s.End(), c.want, c.ok)
			continue
		}
		if c.ok {
			var want int
			if err := json.Unmarshal([]byte(c.in), &want); err != nil || got != want {
				t.Errorf("Int(%q) = %d, encoding/json %d (%v)", c.in, got, want, err)
			}
		}
	}
}

// TestFloatRule pins Float: JSON's number grammar at its edges, with the
// value strconv.ParseFloat gives the same text, as encoding/json does —
// the sign of zero included.
func TestFloatRule(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`0`, true},
		{`-0`, true},
		{`-0.0`, true},
		{`1.5`, true},
		{`0.25`, true},
		{`1e5`, true},
		{`1E+5`, true},
		{`2.5e-3`, true},
		{`-1.25E3`, true},
		{`1e308`, true},
		{`4.9e-324`, true},
		{`1e400`, false},
		{`1.`, false},
		{`.5`, false},
		{`01.5`, false},
		{`1e`, false},
		{`1e+`, false},
		{`1.e5`, false},
		{`-`, false},
		{`+1`, false},
		{`NaN`, false},
		{`Infinity`, false},
		{`0x10`, false},
	} {
		s := New([]byte(c.in))
		got := s.Float()
		if s.End() != c.ok {
			t.Errorf("Float(%q): End() = %v, want %v", c.in, s.End(), c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		var want float64
		if err := json.Unmarshal([]byte(c.in), &want); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float(%q) = %v, encoding/json %v (%v)", c.in, got, want, err)
		}
	}
}

// TestCount pins Count: occurrences of a byte before the next stop
// byte, and a failure when no stop byte follows.
func TestCount(t *testing.T) {
	s := New([]byte(`{"a":1},{"a":2},{"a":3}],[{"a":4}]`))
	if n := s.Count('{', ']'); n != 3 || !s.OK() {
		t.Fatalf("Count = %d, OK %v; want 3 before the first ]", n, s.OK())
	}
	s = New([]byte(`{"a":1},{"a":2}`))
	if n := s.Count('{', ']'); n != 0 || s.OK() {
		t.Fatalf("Count with no stop byte = %d, OK %v; want 0 and a failure", n, s.OK())
	}
}

// TestEndRejectsTrailingBytes pins End: only whitespace may follow the
// last token.
func TestEndRejectsTrailingBytes(t *testing.T) {
	for in, ok := range map[string]bool{
		"{} \t\r\n": true,
		"{}":        true,
		"{} x":      false,
		"{}{}":      false,
		"{},":       false,
	} {
		s := New([]byte(in))
		s.Fields(nil, func(int) {})
		if s.End() != ok {
			t.Errorf("End() on %q = %v, want %v", in, s.End(), ok)
		}
	}
}

// TestFailureIsSticky pins the sticky failure: once a token fails, or
// the caller calls Fail, OK and End stay false, whatever follows reads.
func TestFailureIsSticky(t *testing.T) {
	s := New([]byte(`[1,x]`))
	var got []int
	s.Elems(func() { got = append(got, s.Int()) })
	if s.OK() || s.End() {
		t.Fatalf("a bad element left OK %v, End %v", s.OK(), s.End())
	}
	s = New([]byte(`{} []`))
	s.Tok('[')
	s.Tok('{')
	s.Tok('}')
	if s.OK() || s.End() {
		t.Fatal("tokens read after a failure cleared it")
	}
	s = New([]byte(`{"7":1}`))
	s.Keys(func(key string) {
		s.Int()
		if key == "7" {
			s.Fail()
		}
	})
	if s.OK() || s.End() {
		t.Fatal("Fail did not stick")
	}
}
