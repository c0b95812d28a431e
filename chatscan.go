package pas

import "repro/internal/wire"

// Where an object sits decides which of its keys the scan reads: "seed"
// and "messages" at the top level, "role" and "content" in an element
// of messages. Objects anywhere else are the scanner's to skip.
const (
	inTop = iota
	inMessage
)

// chatScan is one forward pass over a chat-completions request body,
// made with the repository's one JSON scanner (wire.Scanner, which also
// reads the /v1/augment bodies). It validates RFC 8259 syntax and, on
// the way, records where the raw seed value and the content string
// literal of the last "role":"user" element of the top-level messages
// array sit in the body. Keys are compared after unescaping,
// case-sensitively; of duplicate keys the last one wins, as
// encoding/json resolves them. Offsets index the scanned body; an end of
// 0 means "absent".
type chatScan struct {
	wire.Scanner

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
	s := chatScan{Scanner: wire.NewScanner(body)}
	top := s.SkipWS()
	var ok bool
	if top == '{' {
		ok = s.object(inTop)
	} else {
		ok = s.Value()
	}
	s.valid = ok && s.AtEnd()
	s.usable = s.valid && top == '{' && !s.badMessages && (!s.haveUser || s.contentEnd > 0)
	return s
}

// object consumes the top-level object or an element of messages,
// reading the keys its place makes interesting.
//
//paslint:hotpath once per chat message
func (s *chatScan) object(in int) bool {
	if !s.Enter() {
		return false
	}
	for first := true; ; first = false {
		key, c, ok := s.Member(first)
		if !ok || key == nil {
			return ok
		}
		v := s.Pos()
		switch {
		case in == inTop && wire.LiteralIs(key, "messages"):
			s.badMessages, s.haveUser, s.contentEnd = c != '[', false, 0
			if c == '[' {
				ok = s.messages()
			} else {
				ok = s.Value()
			}
		case in == inTop && wire.LiteralIs(key, "seed"):
			ok = s.Value()
			s.seedStart, s.seedEnd = v, s.Pos()
		case in == inMessage && wire.LiteralIs(key, "role"):
			ok = s.Value()
			s.msgUser = ok && c == '"' && wire.LiteralIs(s.Since(v), "user")
		case in == inMessage && wire.LiteralIs(key, "content"):
			ok = s.Value()
			s.msgStart, s.msgEnd = v, 0
			if c == '"' {
				s.msgEnd = s.Pos()
			}
		default:
			ok = s.Value()
		}
		if !ok {
			return false
		}
	}
}

// messages consumes the top-level messages array: each element is read
// as a chat message and the last one whose role is "user" supplies the
// content span.
//
//paslint:hotpath once per chat
func (s *chatScan) messages() bool {
	if !s.Enter() {
		return false
	}
	for first := true; ; first = false {
		c, more, ok := s.Elem(first)
		if !ok || !more {
			return ok
		}
		if c != '{' {
			s.badMessages = true
			if !s.Value() {
				return false
			}
			continue
		}
		s.msgUser, s.msgEnd = false, 0
		if !s.object(inMessage) {
			return false
		}
		if s.msgUser {
			s.haveUser, s.contentStart, s.contentEnd = true, s.msgStart, s.msgEnd
		}
	}
}
