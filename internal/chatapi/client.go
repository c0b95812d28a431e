package chatapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simllm"
)

// ClientConfig configures a chat-completions client.
type ClientConfig struct {
	// BaseURL is the endpoint root, e.g. "http://localhost:9090".
	BaseURL string
	// APIKey is sent as a bearer token; empty means anonymous.
	APIKey string
	// MaxRetries bounds retry attempts on retryable failures (429/5xx
	// responses and transport errors). Terminal 4xx responses are never
	// retried.
	MaxRetries int
	// Backoff is the base delay of the capped full-jitter exponential
	// between retries; a server Retry-After header overrides it. Tests
	// set it to ~0.
	Backoff time.Duration
	// RetryBudget bounds the whole call — attempts plus sleeps; 0 means
	// only the context deadline bounds it.
	RetryBudget time.Duration
	// Timeout is the default HTTP client's total per-attempt timeout,
	// used only when HTTPClient is nil. Default 30s.
	Timeout time.Duration
	// BreakerThreshold sizes the circuit breaker in front of this
	// backend: after that many consecutive failed calls the client
	// fails fast with resilience.ErrOpen instead of re-dialing a dead
	// endpoint, probing once per BreakerCooldown window. 0 means it
	// never trips (resilience.BreakerConfig.Threshold).
	BreakerThreshold int
	// BreakerCooldown is the open→half-open window. Default 5s.
	BreakerCooldown time.Duration
	// HTTPClient overrides the transport; nil uses a client with
	// Timeout as its total timeout.
	HTTPClient *http.Client
}

// Client calls a chat-completions endpoint with bounded, deadline-aware
// retries — the production shim any real PAS deployment needs in front
// of a public LLM API.
type Client struct {
	cfg     ClientConfig
	breaker *resilience.Breaker // opens on consecutive failed calls
	// sleep is the retry sleeper; tests replace it to observe the
	// schedule without real waiting.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient validates the configuration.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("chatapi: empty base URL")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("chatapi: MaxRetries must be >= 0, got %d", cfg.MaxRetries)
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("chatapi: Timeout must be >= 0, got %v", cfg.Timeout)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: cfg.Timeout}
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	c := &Client{cfg: cfg, sleep: resilience.SleepContext}
	c.breaker = resilience.NewBreaker(resilience.BreakerConfig{
		Threshold: cfg.BreakerThreshold,
		Cooldown:  cfg.BreakerCooldown,
	})
	return c, nil
}

// policy assembles the retry schedule for one call.
func (c *Client) policy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts: c.cfg.MaxRetries + 1,
		BaseDelay:   c.cfg.Backoff,
		Budget:      c.cfg.RetryBudget,
		Sleep:       c.sleep,
	}
}

// ChatCompletionContext performs one completion request under ctx.
// Retryable failures (transport errors, 5xx) retry with capped
// full-jitter backoff; overload answers (429/503) wait out the server's
// Retry-After when it sends one; terminal 4xx answers return
// immediately. The context deadline bounds the whole retry loop — the
// client never sleeps into a deadline it cannot make.
func (c *Client) ChatCompletionContext(ctx context.Context, req ChatRequest) (ChatResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return ChatResponse{}, fmt.Errorf("chatapi: encoding request: %w", err)
	}
	ctx, span := obs.StartSpan(ctx, "chatapi.chat_completion")
	defer span.End()
	span.SetAttr("model", req.Model)
	done, berr := c.breaker.Allow()
	if berr != nil {
		err := fmt.Errorf("chatapi: backend %s: %w", c.cfg.BaseURL, berr)
		span.SetError(err)
		return ChatResponse{}, err
	}
	resp, err := resilience.DoValue(ctx, c.policy(), func(ctx context.Context) (ChatResponse, error) {
		return c.try(ctx, body)
	})
	// Terminal answers (4xx) mean the backend is up and judging our
	// request; only transport faults, 5xx, and overload count against
	// its health.
	done(err == nil || resilience.Classify(err) == resilience.Terminal)
	if err != nil {
		span.SetError(err)
	}
	return resp, err
}

// try performs a single attempt. Errors come back classified for the
// retry executor: terminal for 4xx (except 429), overload with the
// server's Retry-After hint for 429/503, plain retryable for transport
// faults and other 5xx.
func (c *Client) try(ctx context.Context, body []byte) (ChatResponse, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/chat/completions", bytes.NewReader(body))
	if err != nil {
		return ChatResponse{}, resilience.AsTerminal(fmt.Errorf("chatapi: %w", err))
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.cfg.APIKey != "" {
		httpReq.Header.Set("Authorization", "Bearer "+c.cfg.APIKey)
	}
	// Propagate the trace so the backend's spans join this request's
	// trace instead of starting fresh roots.
	obs.Inject(ctx, httpReq.Header)
	resp, err := c.cfg.HTTPClient.Do(httpReq)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller's context ended mid-flight; retrying cannot help.
			return ChatResponse{}, fmt.Errorf("chatapi: %w", ctxErr)
		}
		// A per-attempt timeout or transport fault: explicitly
		// retryable, even though the chain may wrap DeadlineExceeded
		// (only the attempt's clock ran out, not the caller's).
		return ChatResponse{}, resilience.AsRetryable(fmt.Errorf("chatapi: transport: %w", err))
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ChatResponse{}, fmt.Errorf("chatapi: %w", ctxErr)
		}
		return ChatResponse{}, resilience.AsRetryable(fmt.Errorf("chatapi: reading response: %w", err))
	}
	if resp.StatusCode != http.StatusOK {
		return ChatResponse{}, statusError(resp, raw)
	}
	var out ChatResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return ChatResponse{}, resilience.AsTerminal(fmt.Errorf("chatapi: decoding response: %w", err))
	}
	if len(out.Choices) == 0 {
		return ChatResponse{}, resilience.AsTerminal(fmt.Errorf("chatapi: response has no choices"))
	}
	return out, nil
}

// statusError converts a non-200 answer into a classified error.
func statusError(resp *http.Response, raw []byte) error {
	status := resp.StatusCode
	base := fmt.Errorf("chatapi: status %d", status)
	var e apiError
	if json.Unmarshal(raw, &e) == nil && e.Error.Message != "" {
		base = fmt.Errorf("chatapi: %s (%d): %s", e.Error.Type, status, e.Error.Message)
	}
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		err := resilience.AsOverload(base)
		if after, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			err = resilience.WithRetryAfter(err, after)
		}
		return err
	case status >= 500:
		return base // retryable
	default:
		return resilience.AsTerminal(base) // 4xx: our request is wrong; repeating won't fix it
	}
}

// parseRetryAfter reads a Retry-After header: delay-seconds or an HTTP
// date.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// Models lists the models the endpoint serves.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/v1/models", nil)
	if err != nil {
		return nil, fmt.Errorf("chatapi: %w", err)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("chatapi: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("chatapi: status %d", resp.StatusCode)
	}
	var out struct {
		Data []struct {
			ID string `json:"id"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("chatapi: decoding models: %w", err)
	}
	names := make([]string, len(out.Data))
	for i, d := range out.Data {
		names[i] = d.ID
	}
	return names, nil
}

// Remote is one served model behind a Client as a simllm.Chatter, so
// library code (pas.System.EnhanceContext in particular) can drive a
// model over HTTP exactly like an in-process one.
type Remote struct {
	client *Client
	model  string
}

// NewRemote binds a client to one model name.
func NewRemote(client *Client, model string) (*Remote, error) {
	if client == nil {
		return nil, fmt.Errorf("chatapi: nil client")
	}
	if model == "" {
		return nil, fmt.Errorf("chatapi: empty model name")
	}
	return &Remote{client: client, model: model}, nil
}

// Name returns the remote model's name.
func (r *Remote) Name() string { return r.model }

// ChatContext runs one chat over HTTP under ctx: the deadline bounds
// the whole retry loop and a cancellation aborts the in-flight attempt.
func (r *Remote) ChatContext(ctx context.Context, messages []simllm.Message, opt simllm.Options) (string, error) {
	req := ChatRequest{Model: r.model, Temperature: opt.Temperature, Seed: opt.Salt}
	for _, m := range messages {
		req.Messages = append(req.Messages, Message{Role: m.Role, Content: m.Content})
	}
	resp, err := r.client.ChatCompletionContext(ctx, req)
	if err != nil {
		return "", err
	}
	return resp.Choices[0].Message.Content, nil
}
