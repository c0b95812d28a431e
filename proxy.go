package pas

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Proxy is the transparent deployment form of the plug-and-play system:
// a reverse proxy that sits in front of any OpenAI-style chat-completions
// endpoint and appends a complementary prompt to the final user message
// of every request before forwarding. Clients keep their existing
// SDKs and URLs — they just point at the proxy — which is the strongest
// reading of the paper's "can be plugged into any other LLMs available
// via public APIs".
//
// The request reaches the main model intact: every byte outside the
// content string of the last user message is forwarded unchanged (see
// augmentRequest), so tool calls, names and fields the proxy does not
// know survive. A chat body the proxy cannot use or will not hold —
// unparseable, multimodal content, over maxChatBody — is forwarded raw
// and the response flagged X-PAS-Degraded: 1; the proxy never answers
// 400 in the upstream's place. Non-chat paths (model listings, health
// checks) pass through untouched.
//
// A forwarded chat runs out of reused memory: it is read into pooled
// scratch, rewritten there and sent from there (chatBody), and the
// response is copied through a pooled buffer, flushed as httputil does
// unasked: at once for an event stream or a body of undeclared length.
type Proxy struct {
	system      Augmenter
	upstream    *url.URL
	rp          *httputil.ReverseProxy
	readTimeout time.Duration // chatReadTimeout; shorter in tests
}

// Augmenter is the augmentation source a Proxy fronts. Two
// implementations exist: *System (in-process augmentation through the
// serving core) and ring.Client (consistent-hash routing across a
// passerve replica fleet). The degraded result reports that the prompt
// went through below full quality, which the proxy surfaces as
// X-PAS-Degraded rather than hiding.
type Augmenter interface {
	AugmentContextDegraded(ctx context.Context, prompt, salt string) (augmented string, degraded bool, err error)
}

// LevelAugmenter is the optional refinement an Augmenter can implement
// to name the answer's level instead of a bare verdict: the returned
// level is the X-PAS-Degraded wire value ("" full, "1" raw
// passthrough). *System and the ring client implement it, the ring
// client passing a replica's value through as sent; the proxy falls back
// to the boolean interface (and the "1" flag) for augmenters that do not.
type LevelAugmenter interface {
	AugmentContextLevel(ctx context.Context, prompt, salt string) (augmented, level string, err error)
}

// NewProxy creates a proxy augmenting via the in-process system.
func NewProxy(system *System, upstreamURL string) (*Proxy, error) {
	if system == nil {
		return nil, fmt.Errorf("pas: nil system")
	}
	return NewProxyWith(system, upstreamURL)
}

// NewProxyWith creates a proxy over any augmentation source — the
// cluster client, a test fake — forwarding non-augmented traffic to
// upstreamURL.
func NewProxyWith(system Augmenter, upstreamURL string) (*Proxy, error) {
	if system == nil {
		return nil, fmt.Errorf("pas: nil augmenter")
	}
	u, err := url.Parse(upstreamURL)
	if err != nil {
		return nil, fmt.Errorf("pas: upstream URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("pas: upstream URL %q must be absolute", upstreamURL)
	}
	p := &Proxy{system: system, upstream: u, readTimeout: chatReadTimeout}
	p.rp = &httputil.ReverseProxy{
		Director: func(r *http.Request) {
			r.URL.Scheme = u.Scheme
			r.URL.Host = u.Host
			r.Host = u.Host
			// The outbound clone carries the inbound request's context, so
			// this stamps the current trace onto the upstream hop and the
			// downstream service continues the same trace.
			obs.Inject(r.Context(), r.Header)
		},
		BufferPool: copyBuffers,
		// The proxy's own middleware already echoes a traceparent on the
		// response; drop the upstream's echo so the client is not handed
		// two values for one header.
		ModifyResponse: func(resp *http.Response) error {
			resp.Header.Del(obs.TraceparentHeader)
			return nil
		},
		// Only transport-level failures (upstream unreachable, connection
		// reset) reach this handler; an upstream that answers — any
		// status, 4xx included — streams back to the client verbatim. A
		// client that hung up while the upstream was dialled or read is
		// no failure of the upstream's, and nobody to answer: 499.
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			if clientGone(w, r) {
				return
			}
			writeError(w, http.StatusBadGateway, "upstream_unreachable", err)
		},
	}
	return p, nil
}

// writeError answers in the proxy's own name, with the JSON error
// envelope clients of an OpenAI-style API expect, escaped as
// encoding/json escapes and marked nosniff: the error may quote bytes a
// replica sent.
func writeError(w http.ResponseWriter, status int, kind string, err error) {
	buf := wire.GetBuffer()
	defer buf.Release()
	buf.B = wire.AppendField(append(buf.B, `{"error":{`...), "message", err.Error())
	buf.B = append(wire.AppendField(append(buf.B, ','), "type", kind), '}', '}')
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_, _ = w.Write(buf.B) // the client hung up: nothing to do about it here
}

// copyBufferPool is the reverse proxy's httputil.BufferPool: without one
// it makes a 32 KiB slice for every response it copies. Arrays are pooled,
// not slices, so that Put boxes a pointer and allocates nothing.
type copyBufferPool struct{ arrays sync.Pool }

var copyBuffers = &copyBufferPool{arrays: sync.Pool{New: func() any { return new([32 << 10]byte) }}}

func (p *copyBufferPool) Get() []byte  { return p.arrays.Get().(*[32 << 10]byte)[:] }
func (p *copyBufferPool) Put(b []byte) { p.arrays.Put((*[32 << 10]byte)(b)) }

// chatBody is a rewritten chat on its way to the upstream: a reader over
// pooled scratch that hands the scratch back at Close. Close and Read
// share a lock because httputil.ReverseProxy closes the body when its
// handler returns and documents that a transport's Read may still be in
// flight then: the scratch goes back between Reads, and a later Read
// returns http.ErrBodyReadAfterClose, never a recycled buffer's bytes.
// The transport and the reverse proxy both close it; the second Close
// finds nothing to release.
type chatBody struct {
	mu  sync.Mutex
	buf *wire.Buffer // nil once closed
	off int          // buf.B[off:] is unread
}

func (b *chatBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.buf == nil:
		return 0, http.ErrBodyReadAfterClose
	case b.off == len(b.buf.B):
		return 0, io.EOF
	}
	n := copy(p, b.buf.B[b.off:])
	b.off += n
	return n, nil
}

func (b *chatBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf != nil {
		b.buf.Release()
		b.buf = nil
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/chat/completions") {
		actx, span := obs.StartSpan(r.Context(), "proxy.augment")
		level, status, err := p.augmentRequest(actx, w, r)
		span.SetAttrBool("degraded", level != "")
		if err != nil {
			span.SetError(err)
		}
		span.End()
		if err != nil {
			if status == http.StatusServiceUnavailable {
				if clientGone(w, r) {
					return
				}
				// The augmenter failed — the serving core shed while
				// fail-closed (ServingConfig.Degrade off) or draining, or
				// the fleet is unreachable with -degrade=false. That is
				// PAS's failure, not the client's: retry, after as long as
				// the augmenter expects the congestion to last when it can
				// say. With Degrade on none of this gets here — the
				// augmenter answered raw and the response is flagged below.
				retryAfter := 1
				if h, ok := p.system.(interface{ RetryAfterHint() int }); ok {
					retryAfter = h.RetryAfterHint()
				}
				w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			}
			writeError(w, status, "pas_proxy_error", err)
			return
		}
		if level != "" {
			// No complement ("1": the core shed fail-open, or the body was
			// not one the proxy could augment). Never silent.
			w.Header().Set(wire.DegradedHeader, level)
		}
	}
	p.rp.ServeHTTP(w, r)
}

// maxChatBody is the largest chat body the proxy reads into memory to
// augment; anything longer is streamed to the upstream as it came.
const maxChatBody = 4 << 20

// chatReadTimeout (passerve's ReadTimeout) bounds that read and nothing
// else: a stalled client must not park a goroutine and its scratch for
// ever, and a server-wide timeout would cut a slow upload or an SSE reply.
const chatReadTimeout = 30 * time.Second

// augmentRequest appends the complementary prompt to the last user
// message of the chat body. It edits bytes, not a decoded document: one
// scan finds the content string literal of that message, only that
// literal is decoded, and the escaped "\n"+complement goes in before its
// closing quote. Every byte outside that one literal reaches the
// upstream exactly as the client sent it — key order, whitespace,
// number spelling, tool calls, fields the proxy has never heard of.
//
// A body with nothing to augment (no messages, no user turn) is
// forwarded as it is. So is one the proxy cannot use — not JSON, not an
// object, messages not an array of objects, a last user turn whose
// content is not a string (multimodal parts), or longer than
// maxChatBody — and that one is flagged: the upstream, not the proxy,
// decides what to make of it.
//
// The chat is read into pooled scratch and rewritten there. The scratch
// leaves as r.Body, which releases it at Close, or is released here on
// an error; the prompt and the salt the augmenter gets are copies.
//
// The returned level is the X-PAS-Degraded wire value ("" when the
// augmentation ran at full quality). An error comes with the status it
// is answered with, decided by where it arose: 400 for a body that could
// not be read — the one failure that is the client's — and 503 for
// anything the augmenter returned. ctx carries the caller's span in
// addition to r.Context()'s deadline and cancellation, so augmentation
// work parents under it. The read deadline goes on w's connection.
func (p *Proxy) augmentRequest(ctx context.Context, w http.ResponseWriter, r *http.Request) (level string, status int, _ error) {
	if r.ContentLength > maxChatBody {
		return "1", 0, nil
	}
	buf := wire.GetBuffer()
	// Sized from Content-Length; the spare bytes.MinRead lets ReadAll see
	// EOF without growing and usually takes the complement too.
	buf.B = slices.Grow(buf.B, int(max(r.ContentLength, 0))+bytes.MinRead)
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(p.readTimeout)) // a writer with no connection under it has no deadlines to set
	if err := buf.ReadAll(io.LimitReader(r.Body, maxChatBody+1)); err != nil {
		// The deadline stays, to fail net/http's drain of the body's rest too.
		buf.Release()
		return "", http.StatusBadRequest, fmt.Errorf("reading request: %w", err)
	}
	_ = rc.SetReadDeadline(time.Time{}) // what is left of an over-limit upload, M_p and the reply run without one
	if len(buf.B) > maxChatBody {
		// No declared length and more than the proxy will hold: what was
		// read, then the rest straight from the client. Scratch this large
		// the pool would not take back, so it is simply dropped.
		r.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(buf.B), r.Body), r.Body}
		return "1", 0, nil
	}
	_ = r.Body.Close() // request body: nothing actionable on close failure

	scan := scanChat(buf.B)
	switch {
	case !scan.usable:
		level = "1"
	case scan.contentEnd > 0:
		// Salt from the raw seed value if present, for reproducible proxies.
		salt := string(buf.B[scan.seedStart:scan.seedEnd])
		prompt := wire.Unquote(buf.B[scan.contentStart:scan.contentEnd])
		// Through the serving core (cache + dedup + admission) when the
		// system has one; the request context propagates deadlines and
		// client disconnects into the queue. With Degrade enabled a
		// PAS-side failure leaves the message untouched.
		augmented, lvl, err := p.augmentLevel(ctx, prompt, salt)
		if err != nil {
			buf.Release()
			return "", http.StatusServiceUnavailable, err
		}
		level = lvl
		if tail, ok := strings.CutPrefix(augmented, prompt); ok {
			spliceEscaped(buf, scan.contentEnd-1, tail)
		} else if level == "" {
			// A reply that does not extend the prompt is not cat(p, M_p(p)):
			// the user's words go upstream as sent, flagged.
			level = "1"
		}
	}
	r.Body = &chatBody{buf: buf}
	r.ContentLength = int64(len(buf.B))
	r.Header.Set("Content-Length", strconv.Itoa(len(buf.B)))
	return level, 0, nil
}

// spliceEscaped inserts s, escaped for the inside of a string literal
// (RFC-minimal: <, > and & stay as they are), at buf.B[at]: s is escaped
// straight onto the end of the scratch, the bytes from at on are
// appended behind it, and the two move down together. No second buffer,
// and nothing before at is touched.
func spliceEscaped(buf *wire.Buffer, at int, s string) {
	end := len(buf.B)
	buf.B = wire.AppendEscaped(buf.B, s, false)
	buf.B = append(buf.B, buf.B[at:end]...)
	buf.B = buf.B[:at+copy(buf.B[at:], buf.B[end:])]
}

// augmentLevel calls the level-aware interface when the augmenter has
// one, otherwise maps the boolean verdict onto the legacy "1" flag.
func (p *Proxy) augmentLevel(ctx context.Context, prompt, salt string) (augmented, level string, err error) {
	if la, ok := p.system.(LevelAugmenter); ok {
		return la.AugmentContextLevel(ctx, prompt, salt)
	}
	augmented, degraded, err := p.system.AugmentContextDegraded(ctx, prompt, salt)
	if degraded {
		level = "1"
	}
	return augmented, level, err
}
