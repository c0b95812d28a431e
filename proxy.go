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
type Proxy struct {
	system   Augmenter
	upstream *url.URL
	rp       *httputil.ReverseProxy
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
// to name the degradation rung instead of a bare verdict: the returned
// level is the X-PAS-Degraded wire value ("" full, "trim" the
// degradation ladder's cheap complement, "1" raw passthrough). *System and the
// ring client implement it; the proxy falls back to the boolean
// interface (and the legacy "1" flag) for augmenters that do not.
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
	p := &Proxy{system: system, upstream: u}
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
		FlushInterval: 50 * time.Millisecond, // keep SSE streaming live
		// The proxy's own middleware already echoes a traceparent on the
		// response; drop the upstream's echo so the client is not handed
		// two values for one header.
		ModifyResponse: func(resp *http.Response) error {
			resp.Header.Del(obs.TraceparentHeader)
			return nil
		},
		// Only transport-level failures (upstream unreachable, connection
		// reset) reach this handler; an upstream that answers — any
		// status, 4xx included — streams back to the client verbatim.
		// The default handler writes an empty 502; clients of an
		// OpenAI-style API expect a JSON error envelope.
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintf(w, `{"error":{"message":%q,"type":"upstream_unreachable"}}`, err.Error())
		},
	}
	return p, nil
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/chat/completions") {
		actx, span := obs.StartSpan(r.Context(), "proxy.augment")
		level, err := p.augmentRequest(actx, r)
		span.SetAttrBool("degraded", level != "")
		if err != nil {
			span.SetError(err)
		}
		span.End()
		if err != nil {
			status := http.StatusBadRequest
			if IsOverloaded(err) {
				// The serving core shed the augmentation: it is running
				// fail-closed (ServingConfig.Degrade off) or draining. Tell
				// the client to retry, after as long as the augmenter
				// expects the congestion to last when it can say. With
				// Degrade on, overload never gets here — the core answered
				// at the raw rung and the response is flagged below instead.
				status = http.StatusServiceUnavailable
				retryAfter := 1
				if h, ok := p.system.(interface{ RetryAfterHint() int }); ok {
					retryAfter = h.RetryAfterHint()
				}
				w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			}
			http.Error(w, fmt.Sprintf(`{"error":{"message":%q,"type":"pas_proxy_error"}}`, err.Error()), status)
			return
		}
		if level != "" {
			// Below full quality — the cheap complement ("trim"), or no
			// complement at all ("1": the core answered at the raw rung, or
			// the body was not one the proxy could augment). Never silent.
			w.Header().Set(wire.DegradedHeader, level)
		}
	}
	p.rp.ServeHTTP(w, r)
}

// maxChatBody is the largest chat body the proxy reads into memory to
// augment; anything longer is streamed to the upstream as it came.
const maxChatBody = 4 << 20

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
// The returned level is the X-PAS-Degraded wire value ("" when the
// augmentation ran at full quality). ctx carries the caller's span in
// addition to r.Context()'s deadline and cancellation, so augmentation
// work parents under it.
func (p *Proxy) augmentRequest(ctx context.Context, r *http.Request) (level string, _ error) {
	if r.ContentLength > maxChatBody {
		return "1", nil
	}
	// Sized from Content-Length; the spare bytes.MinRead lets ReadFrom
	// see EOF without growing and usually takes the complement too.
	buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxChatBody+1)); err != nil {
		return "", fmt.Errorf("reading request: %w", err)
	}
	body := buf.Bytes()
	if len(body) > maxChatBody {
		// No declared length and more than the proxy will hold: what was
		// read, then the rest straight from the client.
		r.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(body), r.Body), r.Body}
		return "1", nil
	}
	_ = r.Body.Close() // request body: nothing actionable on close failure

	scan := scanChat(body)
	switch {
	case !scan.usable:
		level = "1"
	case scan.contentEnd > 0:
		// Salt from the raw seed value if present, for reproducible proxies.
		salt := string(body[scan.seedStart:scan.seedEnd])
		prompt := unquote(body[scan.contentStart:scan.contentEnd])
		// Through the serving core (cache + dedup + admission + breaker)
		// when the system has one; the request context propagates
		// deadlines and client disconnects into the queue. With Degrade
		// enabled a PAS-side failure leaves the message untouched.
		augmented, lvl, err := p.augmentLevel(ctx, prompt, salt)
		if err != nil {
			return "", err
		}
		level = lvl
		if tail, ok := strings.CutPrefix(augmented, prompt); ok {
			body = slices.Insert(body, scan.contentEnd-1, appendEscaped(nil, tail)...)
		} else {
			// An augmenter that rewrote the prompt instead of extending it:
			// the whole literal is replaced.
			body = slices.Replace(body, scan.contentStart+1, scan.contentEnd-1, appendEscaped(nil, augmented)...)
		}
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	r.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return level, nil
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
