package wire

import (
	"bytes"
	"net/http"
	"net/url"
	"strings"
	"unsafe"
)

// maxHeadFields is the most field lines parseHead claims a block with.
const maxHeadFields = 32

// headField is one field line of a header block: its name is
// block[name:colon], its value, trimmed, block[lo:hi].
type headField struct{ name, colon, lo, hi int }

// parsedHead is a claimed request and its URL, allocated together.
type parsedHead struct {
	req http.Request
	url url.URL
}

// parseHead returns the request http.ReadRequest builds from the header
// block head, Body and context aside, when head is in the subset it can
// build that for and net/http's server serves as this Server does; for
// any other block it returns nil, and the connection is handed off to
// the wrapped server. The subset:
//
//   - the request line is TOKEN SP origin-form SP HTTP/1.1, not
//     CONNECT; the path holds only unreserved bytes and '/' and does not
//     start with "//"; the query holds visible bytes other than '#' and
//     the target does not end in '?';
//   - every line ends in CRLF, and none is folded;
//   - a field's name is a token and its value is made of visible bytes,
//     SP and HTAB, trimmed as textproto trims it;
//   - exactly one Host, of plain bytes, at most one Content-Length, of
//     1 to 18 digits, and no Transfer-Encoding, Expect, Upgrade or
//     Pragma.
//
// FuzzRequestHeadMatchesReadRequest holds it to that.
//
// The head is copied once, its names canonicalized in the copy, and
// every string of the request is a slice of the copy: a string that
// outlives the request keeps the whole copy.
func parseHead(head []byte) *http.Request {
	line, rest, ok := cutCRLF(head)
	if !ok {
		return nil
	}
	method, rest1, _ := bytes.Cut(line, []byte(" "))
	target, proto, _ := bytes.Cut(rest1, []byte(" "))
	if !isToken(method) || string(method) == http.MethodConnect || string(proto) != "HTTP/1.1" {
		return nil
	}
	query := originForm(target)
	if query < 0 {
		return nil
	}
	var fields [maxHeadFields]headField
	nf, host, hosts, cls := 0, 0, 0, 0
	var length int64
	for {
		start := len(head) - len(rest)
		if line, rest, ok = cutCRLF(rest); !ok {
			return nil
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !isToken(line[:colon]) {
			return nil
		}
		lo, hi := colon+1, len(line)
		for i := lo; i < hi; i++ {
			if c := line[i]; (c < ' ' || c > '~') && c != '\t' {
				return nil
			}
		}
		for lo < hi && (line[lo] == ' ' || line[lo] == '\t') {
			lo++
		}
		for hi > lo && (line[hi-1] == ' ' || line[hi-1] == '\t') {
			hi--
		}
		name, value := line[:colon], line[lo:hi]
		switch {
		case equalFoldASCII(name, "host"):
			hosts++
			if !plainHost(value) {
				return nil
			}
			host = nf
		case equalFoldASCII(name, "content-length"):
			cls++
			if len(value) == 0 || len(value) > 18 {
				return nil
			}
			for _, c := range value {
				if c < '0' || c > '9' {
					return nil
				}
				length = 10*length + int64(c-'0')
			}
		case equalFoldASCII(name, "transfer-encoding"), equalFoldASCII(name, "expect"),
			equalFoldASCII(name, "upgrade"), equalFoldASCII(name, "pragma"):
			return nil
		}
		if nf == maxHeadFields {
			return nil
		}
		fields[nf] = headField{start, start + colon, start + lo, start + hi}
		nf++
	}
	if hosts != 1 || cls > 1 || len(rest) > 0 {
		return nil
	}

	buf := bytes.Clone(head)
	for _, f := range fields[:nf] {
		canonicalize(buf[f.name:f.colon])
	}
	s := unsafe.String(&buf[0], len(buf))
	p := new(parsedHead)
	req := &p.req
	targetAt := len(method) + 1
	req.Method = s[:len(method)]
	req.RequestURI = s[targetAt : targetAt+len(target)]
	req.Proto, req.ProtoMajor, req.ProtoMinor = "HTTP/1.1", 1, 1
	p.url.Path = req.RequestURI
	if query < len(target) {
		p.url.Path, p.url.RawQuery = s[targetAt:targetAt+query], s[targetAt+query+1:targetAt+len(target)]
	}
	req.URL = &p.url
	req.Header = make(http.Header, nf-1)
	strs := make([]string, nf-1)
	for i, f := range fields[:nf] {
		value := s[f.lo:f.hi]
		if i == host {
			req.Host = value
			continue
		}
		key := s[f.name:f.colon]
		if vv := req.Header[key]; vv != nil {
			req.Header[key] = append(vv, value)
		} else {
			vv, strs = strs[:1:1], strs[1:]
			vv[0] = value
			req.Header[key] = vv
		}
	}
	req.ContentLength = length
	req.Close = containsToken(req.Header["Connection"], "close")
	return req
}

// cutCRLF cuts b at its first LF, which must follow a CR.
func cutCRLF(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 1 || b[i-1] != '\r' {
		return nil, nil, false
	}
	return b[:i-1], b[i+1:], true
}

// originForm returns where target's query starts — its '?', or
// len(target) for none — when target is in parseHead's subset of the
// origin form, and -1 otherwise.
func originForm(target []byte) int {
	if len(target) == 0 || target[0] != '/' || len(target) > 1 && target[1] == '/' || target[len(target)-1] == '?' {
		return -1
	}
	q := len(target)
	for i, c := range target {
		switch {
		case c == '?' && q == len(target):
			q = i
		case c == '#' || c <= ' ' || c > '~':
			return -1
		case q < len(target):
		case !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '.' || c == '_' || c == '~' || c == '/'):
			return -1
		}
	}
	return q
}

// plainHost reports whether h holds only bytes every Host net/http
// accepts is made of.
func plainHost(h []byte) bool {
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("-._:[]", c) >= 0) {
			return false
		}
	}
	return true
}

// hasToken is net/http's rule for a request's close and its reply's
// (its header.go hasToken): token is in v, in any ASCII case, between
// v's ends, SP, HTAB or commas.
func hasToken(v, token string) bool {
	boundary := func(i int) bool { return i < 0 || i == len(v) || v[i] == ' ' || v[i] == '\t' || v[i] == ',' }
	for i := 0; i+len(token) <= len(v); i++ {
		if boundary(i-1) && boundary(i+len(token)) && equalFoldASCII(v[i:i+len(token)], token) {
			return true
		}
	}
	return false
}

// containsToken is net/http's rule for Request.Close and a protocol
// switch (httpguts.HeaderValuesContainsToken): token is one of the
// comma-separated elements of values, SP and HTAB trimmed, in any ASCII
// case.
func containsToken(values []string, token string) bool {
	for _, v := range values {
		for v != "" {
			var t string
			t, v, _ = strings.Cut(v, ",")
			if equalFoldASCII(strings.Trim(t, " \t"), token) {
				return true
			}
		}
	}
	return false
}

// canonicalize rewrites the token name in place as textproto
// canonicalizes a header key: upper case first and after each '-',
// lower case elsewhere.
func canonicalize(name []byte) {
	upper := true
	for i, c := range name {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		name[i] = c
		upper = c == '-'
	}
}
