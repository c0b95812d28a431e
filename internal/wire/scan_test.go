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

// refStr is str as it was before it skipped plain bytes a word at a
// time: one byte per step. The boundary matrix holds str to it.
func refStr(b []byte, start int) (end int, ok bool) {
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c == '\\':
			i++
			if i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return 0, false
				}
				i += 4
			default:
				return 0, false
			}
		case c < 0x20:
			return 0, false
		}
	}
	return 0, false
}

// TestStrBoundaryMatrix puts every byte value, every valid escape and
// a \u escape cut short at every offset 0-15 of strings of 0-24 plain
// bytes, so at every lane of the first two words str tests eight bytes
// at a time, and holds str's verdict and end offset to refStr's: for a
// closed literal with and without bytes after it, and for one the input
// cuts off. The plain bytes around the insert include 0x20, 0x7F, 0x80
// and 0xFF, the neighbours of what a word test must tell apart.
func TestStrBoundaryMatrix(t *testing.T) {
	plain := []byte("a \x7f\x80\xff/u#!]")
	var inserts [][]byte
	for c := 0; c < 256; c++ {
		inserts = append(inserts, []byte{byte(c)})
	}
	for _, e := range []string{`\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`, `\u00e9`, `\uABCD`, `\u12`} {
		inserts = append(inserts, []byte(e))
	}
	var lit []byte
	for n := 0; n <= 24; n++ {
		content := make([]byte, n)
		for i := range content {
			content[i] = plain[(i*7+n)%len(plain)]
		}
		for off := 0; off <= min(n, 15); off++ {
			for _, ins := range inserts {
				for _, after := range []string{`"`, `",1,"plain tail bytes"]`, ``} {
					lit = append(append(append(append(append(lit[:0], '"'), content[:off]...), ins...), content[off:]...), after...)
					s := NewScanner(lit)
					ok := s.str()
					end, wantOK := refStr(lit, 0)
					if ok != wantOK || ok && s.Pos() != end {
						t.Fatalf("%q: str = %v ending at %d, byte at a time %v ending at %d", lit, ok, s.Pos(), wantOK, end)
					}
				}
			}
		}
	}
}
