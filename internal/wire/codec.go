package wire

import (
	"bytes"
	"io"
	"sync"
	"unicode/utf8"
)

// stdPlainByte is plainByte without <, > and &, which encoding/json
// writes as \u003c, \u003e and \u0026.
var stdPlainByte = func() [256]bool {
	t := plainByte
	t['<'], t['>'], t['&'] = false, false, false
	return t
}()

// AppendEscaped appends s to dst as the inside of a JSON string literal
// — the repository's one JSON string appender. With std false it writes
// the escapes RFC 8259 requires and no others (quote, backslash, the
// control characters) and turns bytes that are not UTF-8 into U+FFFD,
// which is what the proxy splices into a body it otherwise forwards
// untouched. With std true the bytes are exactly encoding/json's: <, >,
// &, U+2028 and U+2029 escaped as well, \b and \f short, and \ufffd
// spelled out for a byte that is not UTF-8.
//
//paslint:hotpath once per byte of every reply, access line and spliced complement
func AppendEscaped(dst []byte, s string, std bool) []byte {
	const hexDigits = "0123456789abcdef"
	plain := &plainByte
	if std {
		plain = &stdPlainByte
	}
	start := 0 // s[start:i] is waiting to be copied as it is
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plain[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch {
			case c == '"' || c == '\\':
				dst = append(dst, '\\', c)
			case c == '\n':
				dst = append(dst, '\\', 'n')
			case c == '\r':
				dst = append(dst, '\\', 'r')
			case c == '\t':
				dst = append(dst, '\\', 't')
			case c == '\b' && std:
				dst = append(dst, '\\', 'b')
			case c == '\f' && std:
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1 && std:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), "\uFFFD"...)
		case (r == '\u2028' || r == '\u2029') && std:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// AppendField appends the object member `"name":"value"` with value
// escaped as encoding/json escapes it. name is a constant that needs no
// escaping.
//
//paslint:hotpath once per string member of every reply and access line
func AppendField(dst []byte, name, value string) []byte {
	dst = append(dst, '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':', '"')
	dst = AppendEscaped(dst, value, true)
	return append(dst, '"')
}

// AppendAugmentRequest appends the bytes json.Marshal(req) returns.
//
//paslint:hotpath encodes every ring hop's request
func AppendAugmentRequest(dst []byte, req AugmentRequest) []byte {
	dst = AppendField(append(dst, '{'), "prompt", req.Prompt)
	if req.Salt != "" {
		dst = AppendField(append(dst, ','), "salt", req.Salt)
	}
	return append(dst, '}')
}

// AppendAugmentResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes, trailing newline included.
//
//paslint:hotpath encodes every /v1/augment reply
func AppendAugmentResponse(dst []byte, resp *AugmentResponse) []byte {
	dst = AppendField(append(dst, '{'), "prompt", resp.Prompt)
	dst = AppendField(append(dst, ','), "complement", resp.Complement)
	dst = AppendField(append(dst, ','), "augmented", resp.Augmented)
	dst = AppendField(append(dst, ','), "model", resp.Model)
	if resp.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if resp.DegradedLevel != "" {
		dst = AppendField(append(dst, ','), "degraded_level", resp.DegradedLevel)
	}
	return append(dst, '}', '\n')
}

// augmentRequestKeys and augmentedKey are what the two decoders ask
// Strings for.
var (
	augmentRequestKeys = []string{"prompt", "salt"}
	augmentedKey       = []string{"augmented"}
)

// DecodeAugmentRequest reads body as json.NewDecoder(body).Decode(&req)
// would, when Strings claims it; the fields are copies, never views of
// body. ok false leaves the body, and the wording of whatever is wrong
// with it, to encoding/json.
//
//paslint:hotpath decodes every /v1/augment request
func DecodeAugmentRequest(body []byte) (req AugmentRequest, ok bool) {
	var lits [2][]byte
	if !stringValues(body, augmentRequestKeys, lits[:]) {
		return req, false
	}
	if lits[0] != nil {
		req.Prompt = Unquote(lits[0])
	}
	if lits[1] != nil {
		req.Salt = Unquote(lits[1])
	}
	return req, true
}

// DecodeAugmented reads the augmented field of an AugmentResponse body,
// the one field the ring's router takes from a replica's reply, under
// the same claim-or-decline rule.
//
//paslint:hotpath decodes every replica reply
func DecodeAugmented(body []byte) (augmented string, ok bool) {
	var lits [1][]byte
	if !stringValues(body, augmentedKey, lits[:]) {
		return "", false
	}
	if lits[0] != nil {
		augmented = Unquote(lits[0])
	}
	return augmented, true
}

// maxPooledBuffer is the largest Buffer the pool takes back. A request
// body may be a megabyte; the pool is per-request scratch, not a place
// for one such body to stay resident.
const maxPooledBuffer = 64 << 10

// Buffer is per-request scratch from a pool: a body read off the wire
// or a line being built by append. What leaves the request — a prompt
// for the core, a cache entry, a log line — must be a copy, never a view
// of B.
type Buffer struct{ B []byte }

var bufferPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 1024)} }}

// GetBuffer returns an empty Buffer.
//
//paslint:hotpath twice per request: the body and the access line
func GetBuffer() *Buffer {
	b := bufferPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// Release hands b back to the pool, unless it grew past
// maxPooledBuffer: then it is dropped for the collector.
//
//paslint:hotpath twice per request
func (b *Buffer) Release() {
	if cap(b.B) <= maxPooledBuffer {
		bufferPool.Put(b)
	}
}

// ReadAll appends everything r has to b.B. The error is r's, nil at
// EOF; the bytes read before it are kept.
//
//paslint:hotpath reads every /v1/augment body and every replica reply
func (b *Buffer) ReadAll(r io.Reader) error {
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Replay returns a reader over what ReadAll read followed by the error
// it stopped on (nil: a plain EOF) — what a decoder reading the source
// itself would have seen. It is how a body the scanner does not claim
// reaches encoding/json: same bytes, same error, so the same verdict in
// the same words as before there was a scanner.
func (b *Buffer) Replay(err error) io.Reader {
	if err == nil {
		return bytes.NewReader(b.B)
	}
	return io.MultiReader(bytes.NewReader(b.B), errReader{err})
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// CopyBuffers is the process's one pool of io.Copy's 32 KiB buffers,
// the ones the reverse proxy copies responses through. Arrays are pooled,
// not slices, so that Put boxes a pointer and allocates nothing.
var CopyBuffers = &copyBufferPool{arrays: sync.Pool{New: func() any { return new([32 << 10]byte) }}}

type copyBufferPool struct{ arrays sync.Pool }

func (p *copyBufferPool) Get() []byte  { return p.arrays.Get().(*[32 << 10]byte)[:] }
func (p *copyBufferPool) Put(b []byte) { p.arrays.Put((*[32 << 10]byte)(b)) }
