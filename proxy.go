package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs"
)

// Proxy is the transparent deployment form of the plug-and-play system:
// a reverse proxy that sits in front of any OpenAI-style chat-completions
// endpoint and augments the final user message of every request with a
// complementary prompt before forwarding. Clients keep their existing
// SDKs and URLs — they just point at the proxy — which is the strongest
// reading of the paper's "can be plugged into any other LLMs available
// via public APIs".
//
// Non-chat paths (model listings, health checks) pass through untouched.
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

// chatPayload is the subset of the chat-completions request the proxy
// rewrites; unknown fields are preserved via Raw.
type chatPayload struct {
	Messages []struct {
		Role    string `json:"role"`
		Content string `json:"content"`
	} `json:"messages"`
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
				// the client to retry. With Degrade on, overload never gets
				// here — the core answered at the raw rung and the response
				// is flagged below instead.
				status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			http.Error(w, fmt.Sprintf(`{"error":{"message":%q,"type":"pas_proxy_error"}}`, err.Error()), status)
			return
		}
		if level != "" {
			// Below full quality — the cheap complement ("trim") or the raw
			// prompt ("1"). Never silent: flagged here and counted in
			// /v1/stats.
			w.Header().Set("X-PAS-Degraded", level)
		}
	}
	p.rp.ServeHTTP(w, r)
}

// augmentRequest rewrites the body in place: the last user message gets
// the complementary prompt appended. All other fields — model, seed,
// temperature, stream, anything the proxy does not know about — survive
// byte-for-byte via generic JSON handling. The returned level is the
// X-PAS-Degraded wire value ("" when the augmentation ran at full
// quality). ctx carries the caller's span in addition to r.Context()'s
// deadline and cancellation, so augmentation work parents under it.
func (p *Proxy) augmentRequest(ctx context.Context, r *http.Request) (level string, _ error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		return "", fmt.Errorf("reading request: %w", err)
	}
	_ = r.Body.Close() // request body: nothing actionable on close failure

	var generic map[string]json.RawMessage
	if err := json.Unmarshal(body, &generic); err != nil {
		return "", fmt.Errorf("invalid JSON: %w", err)
	}
	var payload chatPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		return "", fmt.Errorf("invalid chat payload: %w", err)
	}
	last := -1
	for i := len(payload.Messages) - 1; i >= 0; i-- {
		if payload.Messages[i].Role == "user" {
			last = i
			break
		}
	}
	if last >= 0 {
		// Salt from the seed field if present, for reproducible proxies.
		salt := ""
		if raw, ok := generic["seed"]; ok {
			salt = string(raw)
		}
		// Through the serving core (cache + dedup + admission + breaker)
		// when the system has one; the request context propagates
		// deadlines and client disconnects into the queue. With Degrade
		// enabled a PAS-side failure leaves the message untouched.
		augmented, lvl, err := p.augmentLevel(ctx, payload.Messages[last].Content, salt)
		if err != nil {
			return "", err
		}
		level = lvl
		payload.Messages[last].Content = augmented
		msgs, err := json.Marshal(payload.Messages)
		if err != nil {
			return "", fmt.Errorf("re-encoding messages: %w", err)
		}
		generic["messages"] = msgs
		if body, err = json.Marshal(generic); err != nil {
			return "", fmt.Errorf("re-encoding request: %w", err)
		}
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	r.Header.Set("Content-Length", fmt.Sprint(len(body)))
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
