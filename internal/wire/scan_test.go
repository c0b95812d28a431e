package wire

import (
	"encoding/json"
	"testing"
)

// unquoteSeeds are string literals, quotes included, on which a
// hand-written decoder and encoding/json most easily part ways.
var unquoteSeeds = []string{
	`""`,
	`"plain"`,
	`"Explain how tides form\nState your assumptions."`,
	`"line\nbreak \"quoted\" back\\slash \/ \b\f\r\t"`,
	`"\/"`,
	`"\\u0041 is not an escape, \u0041 is"`,
	`"\u0000"`,
	`"\u00e9 and ` + "\u00e9" + `"`,
	`"\u00E9\u00e9\uABCD\uabcd"`,
	`"lone high \ud800"`,
	`"lone high \ud800 then text"`,
	`"lone low \udc00"`,
	`"pair \ud83d\ude00"`,
	`"PAIR \uD83D\uDE00"`,
	`"reversed \ude00\ud83d"`,
	`"high high low \ud83d\ud83d\ude00"`,
	`"high then escaped backslash \ud83d\\ude00"`,
	`"high then a plain escape \ud83d\n"`,
	`"high then a non-surrogate \ud83d\u0041"`,
	`"high at the end \ud83d"`,
	"\"sep \u2028 and \u2029\"",
	`"sep \u2028 and \u2029"`,
	"\"bad \xff byte\"",
	"\"truncated two \xc3\"",
	"\"truncated three \xe2\x82\"",
	"\"truncated four \xf0\x9f\x98\"",
	"\"truncated then escape \xe2\x82\\n\"",
	"\"overlong \xc0\xaf\"",
	"\"surrogate in UTF-8 \xed\xa0\x80\"",
	"\"\U0001F600 and \xff and \\ud800\"",
	`"\ufffd"`,
}

// checkUnquote holds Unquote to encoding/json on one candidate: on
// every literal the scanner accepts as a whole value, both decode it to
// the same string.
func checkUnquote(t *testing.T, lit []byte) {
	t.Helper()
	s := NewScanner(lit)
	if len(lit) == 0 || lit[0] != '"' || !s.Value() || s.Pos() != len(lit) {
		return
	}
	var want string
	if err := json.Unmarshal(lit, &want); err != nil {
		t.Fatalf("the scanner accepts %q, encoding/json does not: %v", lit, err)
	}
	if got := Unquote(lit); got != want {
		t.Fatalf("Unquote(%q) = %q, encoding/json reads %q", lit, got, want)
	}
}

func TestUnquoteSeeds(t *testing.T) {
	for _, s := range unquoteSeeds {
		if sc := NewScanner([]byte(s)); !sc.Value() || sc.Pos() != len(s) {
			t.Errorf("seed %q is not a literal the scanner accepts", s)
		}
		checkUnquote(t, []byte(s))
	}
}

// FuzzUnquote is the differential fuzzer Unquote's escape decoding was
// written against: see checkUnquote.
func FuzzUnquote(f *testing.F) {
	for _, s := range unquoteSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, lit []byte) { checkUnquote(t, lit) })
}

// TestUnquoteEscapesAllocateOnce: a multi-line prompt, which is every
// replica reply's augmented, costs its own string and nothing else.
func TestUnquoteEscapesAllocateOnce(t *testing.T) {
	lit := []byte(`"Explain how tides form.\nState your assumptions, \"number\" the steps."`)
	if n := testing.AllocsPerRun(100, func() { Unquote(lit) }); n > 1 {
		t.Fatalf("Unquote of a literal with escapes allocates %v times, want 1", n)
	}
}
