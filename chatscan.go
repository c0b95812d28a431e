package pas

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"
)

// maxJSONDepth is encoding/json's nesting limit. json.Valid rejects
// anything deeper, and the scanner's syntax verdict must equal it.
const maxJSONDepth = 10000

// Where an object sits decides which of its keys the scanner reads:
// "seed" and "messages" at the top level, "role" and "content" in an
// element of messages, none anywhere else.
const (
	inOther = iota
	inTop
	inMessage
)

// chatScan is one forward pass over a chat-completions request body.
// It validates RFC 8259 syntax and, on the way, records where the raw
// seed value and the content string literal of the last "role":"user"
// element of the top-level messages array sit in the body. Keys are
// compared after unescaping, case-sensitively; of duplicate keys the
// last one wins, as encoding/json resolves them. Offsets index the
// scanned body; an end of 0 means "absent".
type chatScan struct {
	b     []byte
	i     int // next unread byte
	depth int // open containers

	// valid is the syntax verdict, equal to json.Valid's. usable adds
	// the shape the rewrite needs: a top-level object whose messages, if
	// present, is an array of objects and whose last user turn, if any,
	// has a string content.
	valid, usable bool

	seedStart, seedEnd       int // the raw seed value
	contentStart, contentEnd int // the last user turn's content literal, quotes included

	badMessages bool // messages is not an array of objects
	haveUser    bool // messages has a user turn

	// The element of messages being read; committed when it closes.
	msgUser          bool
	msgStart, msgEnd int
}

// scanChat scans body once, front to back, allocating nothing.
//
//paslint:hotpath runs on every chat request before anything else; the rewrite's budget is one pass and no garbage
func scanChat(body []byte) chatScan {
	var s chatScan
	s.b = body
	top := s.skipWS()
	var ok bool
	if top == '{' {
		ok = s.object(inTop)
	} else {
		ok = s.value()
	}
	s.skipWS()
	s.valid = ok && s.i == len(body)
	s.usable = s.valid && top == '{' && !s.badMessages && (!s.haveUser || s.contentEnd > 0)
	return s
}

// skipWS consumes insignificant whitespace and returns the byte it
// stopped at without consuming it, 0 at the end of input (a NUL byte
// starts no JSON token, so the two need no telling apart).
//
//paslint:hotpath between every two tokens
func (s *chatScan) skipWS() byte {
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

// value consumes one JSON value of any kind starting at s.i.
//
//paslint:hotpath once per value
func (s *chatScan) value() bool {
	if s.i >= len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '"':
		return s.str()
	case c == '{':
		return s.object(inOther)
	case c == '[':
		return s.array(false)
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
func (s *chatScan) word(w string) bool {
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// enter opens a container at s.i.
func (s *chatScan) enter() bool {
	s.i++
	s.depth++
	return s.depth <= maxJSONDepth
}

// leave closes the container whose closing bracket is at s.i.
func (s *chatScan) leave() bool {
	s.i++
	s.depth--
	return true
}

// object consumes the object starting at s.i, reading the keys its
// place makes interesting.
//
//paslint:hotpath once per object; the chat's messages are objects
func (s *chatScan) object(in int) bool {
	if !s.enter() {
		return false
	}
	if s.skipWS() == '}' {
		return s.leave()
	}
	for {
		if s.skipWS() != '"' {
			return false
		}
		k := s.i
		if !s.str() {
			return false
		}
		key := s.b[k:s.i]
		if s.skipWS() != ':' {
			return false
		}
		s.i++
		c := s.skipWS()
		v := s.i
		var ok bool
		switch {
		case in == inTop && literalIs(key, "messages"):
			s.badMessages, s.haveUser, s.contentEnd = c != '[', false, 0
			if c == '[' {
				ok = s.array(true)
			} else {
				ok = s.value()
			}
		case in == inTop && literalIs(key, "seed"):
			ok = s.value()
			s.seedStart, s.seedEnd = v, s.i
		case in == inMessage && literalIs(key, "role"):
			ok = s.value()
			s.msgUser = ok && c == '"' && literalIs(s.b[v:s.i], "user")
		case in == inMessage && literalIs(key, "content"):
			ok = s.value()
			s.msgStart, s.msgEnd = v, 0
			if c == '"' {
				s.msgEnd = s.i
			}
		default:
			ok = s.value()
		}
		if !ok {
			return false
		}
		switch s.skipWS() {
		case ',':
			s.i++
		case '}':
			return s.leave()
		default:
			return false
		}
	}
}

// array consumes the array starting at s.i. With messages set it is
// the top-level messages array: each element is read as a chat message
// and the last one whose role is "user" supplies the content span.
//
//paslint:hotpath once per array; messages is one
func (s *chatScan) array(messages bool) bool {
	if !s.enter() {
		return false
	}
	if s.skipWS() == ']' {
		return s.leave()
	}
	for {
		switch c := s.skipWS(); {
		case !messages:
			if !s.value() {
				return false
			}
		case c == '{':
			s.msgUser, s.msgEnd = false, 0
			if !s.object(inMessage) {
				return false
			}
			if s.msgUser {
				s.haveUser, s.contentStart, s.contentEnd = true, s.msgStart, s.msgEnd
			}
		default:
			s.badMessages = true
			if !s.value() {
				return false
			}
		}
		switch s.skipWS() {
		case ',':
			s.i++
		case ']':
			return s.leave()
		default:
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

// str consumes the string literal whose opening quote is at s.i. Like
// json.Valid it checks escapes and control characters, not UTF-8.
//
//paslint:hotpath once per byte of every string; strings are most of a chat body
func (s *chatScan) str() bool {
	b := s.b
	for i := s.i + 1; ; i++ {
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
func (s *chatScan) number() bool {
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
func (s *chatScan) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// literalIs reports whether the valid string literal lit, quotes
// included, decodes to want.
func literalIs(lit []byte, want string) bool {
	if bytes.IndexByte(lit, '\\') < 0 {
		return string(lit[1:len(lit)-1]) == want
	}
	return unquote(lit) == want
}

// unquote decodes a string literal the scanner accepted, quotes
// included. Only the one literal the proxy extends (and a key spelled
// with escapes) comes here, so it is left to encoding/json: a surrogate
// escape without its partner and every byte that is not UTF-8 become
// U+FFFD, exactly as the upstream's decoder will read them.
func unquote(lit []byte) string {
	if bytes.IndexByte(lit, '\\') < 0 && utf8.Valid(lit) {
		return string(lit[1 : len(lit)-1])
	}
	var s string
	_ = json.Unmarshal(lit, &s) // a valid string literal always decodes into a string
	return s
}

// appendEscaped appends s to dst as the inside of a JSON string
// literal with the escapes RFC 8259 requires and no others: quote,
// backslash and the control characters. <, > and & stay as they are.
// Bytes that are not UTF-8 become U+FFFD, so the result is always text.
func appendEscaped(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, "\uFFFD"...)
			} else {
				dst = append(dst, s[i:i+size]...)
			}
			i += size
			continue
		}
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c >= 0x20:
			dst = append(dst, c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		i++
	}
	return dst
}
