package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxJSONDepth is encoding/json's nesting limit. json.Valid rejects
// anything deeper, and the scanner's syntax verdict must equal it.
const maxJSONDepth = 10000

// Scanner is the repository's one JSON scanner: a forward pass over a
// body that validates RFC 8259 syntax exactly as json.Valid does and
// allocates nothing. Value consumes a whole value unseen; a caller that
// wants to look inside a container opens it with Enter and steps through
// it with Member or Elem, reading the values it cares about itself and
// handing the rest back to Value. Strings is that loop for "the string
// values of these top-level keys"; the proxy's chat rewrite writes its
// own, two levels deep.
type Scanner struct {
	b     []byte
	i     int // next unread byte
	depth int // open containers
}

// NewScanner starts a scan at the first byte of body.
func NewScanner(body []byte) Scanner { return Scanner{b: body} }

// Pos is the offset of the next unread byte.
func (s *Scanner) Pos() int { return s.i }

// Since returns the bytes consumed from offset start on: the value just
// read, when start was Pos before it.
func (s *Scanner) Since(start int) []byte { return s.b[start:s.i] }

// AtEnd consumes trailing whitespace and reports whether nothing else
// is left: a body is one value, not a stream of them.
func (s *Scanner) AtEnd() bool {
	s.SkipWS()
	return s.i == len(s.b)
}

// SkipWS consumes insignificant whitespace and returns the byte it
// stopped at without consuming it, 0 at the end of input (a NUL byte
// starts no JSON token, so the two need no telling apart).
//
//paslint:hotpath between every two tokens
func (s *Scanner) SkipWS() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// Value consumes one JSON value of any kind starting at the next byte.
//
//paslint:hotpath once per value
func (s *Scanner) Value() bool {
	if s.i >= len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '"':
		return s.str()
	case c == '{':
		return s.object()
	case c == '[':
		return s.array()
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.word("true")
	case c == 'f':
		return s.word("false")
	case c == 'n':
		return s.word("null")
	}
	return false
}

// word consumes the literal name w.
func (s *Scanner) word(w string) bool {
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// Enter opens the container whose bracket is the next byte.
func (s *Scanner) Enter() bool {
	s.i++
	s.depth++
	return s.depth <= maxJSONDepth
}

// leave closes the container whose closing bracket is the next byte.
func (s *Scanner) leave() {
	s.i++
	s.depth--
}

// Member steps to the next member of the object Enter opened: it
// consumes the separator, the key and the colon and returns the key
// literal, quotes included, and the first byte of the value, which the
// caller must consume next. first says no member has been read yet. At
// the closing brace, which it consumes, key is nil. ok is false on a
// syntax error.
//
//paslint:hotpath once per object member
func (s *Scanner) Member(first bool) (key []byte, c byte, ok bool) {
	c = s.SkipWS()
	switch {
	case c == '}' && first:
		s.leave()
		return nil, 0, true
	case first:
	case c == ',':
		s.i++
		c = s.SkipWS()
	case c == '}':
		s.leave()
		return nil, 0, true
	default:
		return nil, 0, false
	}
	if c != '"' {
		return nil, 0, false
	}
	k := s.i
	if !s.str() {
		return nil, 0, false
	}
	key = s.b[k:s.i]
	if s.SkipWS() != ':' {
		return nil, 0, false
	}
	s.i++
	return key, s.SkipWS(), true
}

// Elem steps to the next element of the array Enter opened and returns
// its first byte; the caller consumes the element. At the closing
// bracket, which it consumes, more is false.
//
//paslint:hotpath once per array element
func (s *Scanner) Elem(first bool) (c byte, more, ok bool) {
	c = s.SkipWS()
	switch {
	case c == ']' && first:
		s.leave()
		return 0, false, true
	case first:
	case c == ',':
		s.i++
		c = s.SkipWS()
	case c == ']':
		s.leave()
		return 0, false, true
	default:
		return 0, false, false
	}
	return c, true, true
}

// object consumes an object nobody looks inside.
//
//paslint:hotpath once per object
func (s *Scanner) object() bool {
	if !s.Enter() {
		return false
	}
	for first := true; ; first = false {
		key, _, ok := s.Member(first)
		if !ok || key == nil {
			return ok
		}
		if !s.Value() {
			return false
		}
	}
}

// array consumes an array nobody looks inside.
//
//paslint:hotpath once per array
func (s *Scanner) array() bool {
	if !s.Enter() {
		return false
	}
	for first := true; ; first = false {
		_, more, ok := s.Elem(first)
		if !ok || !more {
			return ok
		}
		if !s.Value() {
			return false
		}
	}
}

// plainByte marks the bytes a string literal holds as they are:
// everything but the quote, the backslash and the control characters.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < len(t); c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// specialIn reports whether a byte of w is a quote, a backslash or
// below 0x20, for str to skip the words of plain bytes whole: a byte under
// its bound (0x20, or 1 once XOR zeroed it) borrows into its top bit, and
// ^w drops the bytes from 0x80 up. The byte loop decides every verdict.
func specialIn(w uint64) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	return ((w-ones*0x20)|((w^ones*'"')-ones)|((w^ones*'\\')-ones))&^w&tops != 0
}

// str consumes the string literal whose opening quote is the next byte.
// Like json.Valid it checks escapes and control characters, not UTF-8.
//
//paslint:hotpath once per byte of every string; strings are most of a body
func (s *Scanner) str() bool {
	b := s.b
	for i := s.i + 1; ; i++ {
		for len(b)-i >= 8 && !specialIn(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		for i < len(b) && plainByte[b[i]] {
			i++
		}
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case '"':
			s.i = i + 1
			return true
		case '\\':
			i++
			if i >= len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return false
				}
				i += 4
			default:
				return false
			}
		default: // a control character
			return false
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. What
// may follow it is the enclosing container's business.
//
//paslint:hotpath once per number
func (s *Scanner) number() bool {
	if s.b[s.i] == '-' {
		s.i++
	}
	switch n := s.digits(); {
	case n == 0, n > 1 && s.b[s.i-n] == '0':
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return false
		}
	}
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// LiteralIs reports whether the valid string literal lit, quotes
// included, decodes to want.
func LiteralIs(lit []byte, want string) bool {
	if bytes.IndexByte(lit, '\\') < 0 {
		return string(lit[1:len(lit)-1]) == want
	}
	return Unquote(lit) == want
}

// Unquote decodes a string literal the scanner accepted, quotes
// included, into a string of its own: never a view of lit. The reading
// is encoding/json's, which FuzzUnquote holds it to: a surrogate escape
// without its partner and every byte that is not UTF-8 become U+FFFD.
// It allocates the string and nothing else.
func Unquote(lit []byte) string {
	in := lit[1 : len(lit)-1]
	if bytes.IndexByte(in, '\\') < 0 && utf8.Valid(in) {
		return string(in)
	}
	var out strings.Builder
	out.Grow(len(in))
	for i := 0; i < len(in); {
		c := in[i]
		switch {
		case c == '\\':
			c = in[i+1]
			i += 2
			switch c {
			case 'b':
				out.WriteByte('\b')
			case 'f':
				out.WriteByte('\f')
			case 'n':
				out.WriteByte('\n')
			case 'r':
				out.WriteByte('\r')
			case 't':
				out.WriteByte('\t')
			case 'u':
				r := hex4(in[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					// Half of a pair: whole only with a \u low half right behind
					// it, which is then consumed too; alone it is U+FFFD and
					// what follows is read for itself.
					var low rune
					if len(in)-i >= 6 && in[i] == '\\' && in[i+1] == 'u' {
						low = hex4(in[i+2:])
					}
					if r = utf16.DecodeRune(r, low); r != utf8.RuneError {
						i += 6
					}
				}
				out.WriteRune(r)
			default: // quote, backslash, slash
				out.WriteByte(c)
			}
		case c < utf8.RuneSelf:
			start := i
			for i < len(in) && in[i] != '\\' && in[i] < utf8.RuneSelf {
				i++
			}
			out.Write(in[start:i])
		default:
			r, size := utf8.DecodeRune(in[i:])
			i += size
			out.WriteRune(r)
		}
	}
	return out.String()
}

// hex4 reads the four hex digits of a \u escape the scanner checked.
func hex4(b []byte) (r rune) {
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Strings scans body and reports the string values of the top-level
// keys it is asked for: lits[i] is the literal, quotes included, of the
// last member named keys[i], nil when there is none. It claims a body
// only when reading it this way is certain to be what decoding into a
// struct with those string fields gives. Anything else is declined with
// false, for encoding/json to read or to refuse in its own words: a body
// that is not exactly one JSON object, a wanted key whose value is not a
// string (null included: encoding/json keeps the earlier value), and a
// key that is not ASCII, is spelled with escapes, or differs from a
// wanted key only in case — encoding/json matches field names under
// Unicode case folding, so "Prompt" and "ſalt" set the fields too.
//
//paslint:hotpath decodes every /v1/augment request and every replica reply
func stringValues(body []byte, keys []string, lits [][]byte) bool {
	s := NewScanner(body)
	if s.SkipWS() != '{' || !s.Enter() {
		return false
	}
	for first := true; ; first = false {
		key, c, ok := s.Member(first)
		if !ok {
			return false
		}
		if key == nil {
			return s.AtEnd()
		}
		v := s.i
		if !s.Value() {
			return false
		}
		switch i := wanted(key[1:len(key)-1], keys); {
		case i == foldsToWanted, i >= 0 && c != '"':
			return false
		case i >= 0:
			lits[i] = s.Since(v)
		}
	}
}

// The verdicts of wanted that are not an index into keys.
const (
	notWanted     = -1
	foldsToWanted = -2
)

// wanted places one key (the inside of its literal) among keys: its
// index, notWanted, or foldsToWanted when encoding/json might still
// match it to one of them.
func wanted(key []byte, keys []string) int {
	for _, c := range key {
		if c == '\\' || c >= utf8.RuneSelf {
			return foldsToWanted
		}
	}
	for i, k := range keys {
		if string(key) == k {
			return i
		}
	}
	for _, k := range keys {
		if equalFoldASCII(key, k) {
			return foldsToWanted
		}
	}
	return notWanted
}

// equalFoldASCII is strings.EqualFold for ASCII case only, without
// making a string of a []byte key.
func equalFoldASCII[T string | []byte](key T, k string) bool {
	if len(key) != len(k) {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		d := k[i]
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}
