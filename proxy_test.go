package pas

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chatapi"
	"repro/internal/simllm"
)

func proxyFixture(t *testing.T) (*chatapi.Client, *chatapi.Client) {
	t.Helper()
	// Upstream: the simulated chat API.
	apiServer, err := chatapi.NewServer(chatapi.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(apiServer.Handler())
	t.Cleanup(upstream.Close)

	// The PAS proxy in front of it.
	proxy, err := NewProxy(testSystem(t).System, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	t.Cleanup(front.Close)

	direct, err := chatapi.NewClient(chatapi.ClientConfig{BaseURL: upstream.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	proxied, err := chatapi.NewClient(chatapi.ClientConfig{BaseURL: front.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return direct, proxied
}

func TestNewProxyValidation(t *testing.T) {
	sys := testSystem(t).System
	if _, err := NewProxy(nil, "http://x"); err == nil {
		t.Error("nil system should fail")
	}
	if _, err := NewProxy(sys, "not-a-url/"); err == nil {
		t.Error("relative upstream should fail")
	}
	if _, err := NewProxy(sys, "://bad"); err == nil {
		t.Error("malformed upstream should fail")
	}
}

func TestProxyAugmentsChatRequests(t *testing.T) {
	direct, proxied := proxyFixture(t)
	req := chatapi.ChatRequest{
		Model:    simllm.GPT40613,
		Seed:     "proxy-test",
		Messages: []chatapi.Message{{Role: "user", Content: "Explain how tides form."}},
	}
	bare, err := direct.ChatCompletionContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	augmented, err := proxied.ChatCompletionContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The proxied request must produce a different (augmented) response,
	// and it must match what explicit augmentation over the direct path
	// would produce — the proxy is exactly the Augment transform.
	if augmented.Choices[0].Message.Content == bare.Choices[0].Message.Content {
		t.Fatal("proxy changed nothing")
	}
	sys := testSystem(t).System
	explicit, err := direct.ChatCompletionContext(context.Background(), chatapi.ChatRequest{
		Model: simllm.GPT40613,
		Seed:  "proxy-test",
		Messages: []chatapi.Message{{
			Role:    "user",
			Content: sys.Augment("Explain how tides form.", `"proxy-test"`),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if augmented.Choices[0].Message.Content != explicit.Choices[0].Message.Content {
		t.Fatal("proxied response differs from explicit augmentation")
	}
}

func TestProxyPreservesNonChatPaths(t *testing.T) {
	_, proxied := proxyFixture(t)
	models, err := proxied.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 {
		t.Fatal("model listing should pass through the proxy")
	}
}

func TestProxyStreamingPassesThrough(t *testing.T) {
	_, proxied := proxyFixture(t)
	var chunks int
	content, err := proxied.ChatCompletionStream(context.Background(), chatapi.ChatRequest{
		Model:    simllm.GPT40613,
		Seed:     "stream-proxy",
		Messages: []chatapi.Message{{Role: "user", Content: "Explain the science of fermentation."}},
	}, func(string) { chunks++ })
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 2 || content == "" {
		t.Fatalf("streaming through proxy broken: %d chunks", chunks)
	}
}

// TestProxyRejectsGarbageChatBody: it is the upstream that rejects, not
// the proxy. A chat body the proxy cannot augment — garbage, the wrong
// shape, multimodal content — reaches the upstream byte for byte, the
// upstream's own verdict comes back verbatim, and the response says the
// request went through un-augmented. Bodies go straight through
// net/http (the chatapi client validates JSON before sending, so
// garbage cannot come from it).
func TestProxyRejectsGarbageChatBody(t *testing.T) {
	const verdict = `{"error":{"message":"could not parse the request body","type":"invalid_request_error"}}`
	var received []byte
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		received, _ = io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, verdict)
	}))
	defer upstream.Close()
	proxy, err := NewProxy(testSystem(t).System, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	for name, sent := range map[string]string{
		"not JSON":             "{broken",
		"truncated":            `{"messages":[{"role":"user","content":"Explain how ti`,
		"not an object":        `[{"role":"user","content":"x"}]`,
		"messages not array":   `{"messages":{"role":"user","content":"x"}}`,
		"element not object":   `{"messages":[{"role":"user","content":"x"},"y"]}`,
		"multimodal content":   `{"model":"m","messages":[{"role":"user","content":[{"type":"text","text":"what is this?"},{"type":"image_url","image_url":{"url":"data:image/png;base64,AAAA"}}]}]}`,
		"null content":         `{"messages":[{"role":"user","content":null}]}`,
		"last of two not text": `{"messages":[{"role":"user","content":"x"},{"role":"user","content":[]}]}`,
	} {
		received = nil
		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(sent))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(received) != sent {
			t.Errorf("%s: upstream received %q, want the body as sent %q", name, received, sent)
		}
		if resp.StatusCode != http.StatusBadRequest || string(got) != verdict {
			t.Errorf("%s: answer %d %q, want the upstream's own 400 verbatim", name, resp.StatusCode, got)
		}
		if flag := resp.Header.Get("X-PAS-Degraded"); flag != "1" {
			t.Errorf("%s: X-PAS-Degraded = %q, want 1", name, flag)
		}
	}
}

// TestProxyPassesOversizedChatThrough: a chat longer than the proxy
// will hold is not cut at the limit and called invalid JSON; it streams
// to the upstream whole and un-augmented, flagged — with a declared
// length (nothing is read) and without one (what was read, then the
// rest).
func TestProxyPassesOversizedChatThrough(t *testing.T) {
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxy(testSystem(t).System, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	sent := `{"model":"m","messages":[{"role":"user","content":"` + strings.Repeat("tides ", (5<<20)/6) + `"}]}`
	if len(sent) <= maxChatBody {
		t.Fatalf("test body of %d bytes is not oversized", len(sent))
	}
	for name, body := range map[string]io.Reader{
		"Content-Length": strings.NewReader(sent),
		"chunked":        struct{ io.Reader }{strings.NewReader(sent)}, // hides Len: no declared length
	} {
		*bodies = nil
		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-PAS-Degraded") != "1" {
			t.Errorf("%s: status %d, X-PAS-Degraded %q; want 200 flagged 1", name, resp.StatusCode, resp.Header.Get("X-PAS-Degraded"))
		}
		if len(*bodies) != 1 || string((*bodies)[0]) != sent {
			t.Errorf("%s: upstream did not receive the %d bytes as sent", name, len(sent))
		}
	}
}

// captureUpstream is an upstream that records the exact bytes of each
// request body, for byte-level passthrough assertions.
func captureUpstream(t *testing.T) (*httptest.Server, *[][]byte) {
	t.Helper()
	var bodies [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("upstream read: %v", err)
		}
		bodies = append(bodies, b)
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(srv.Close)
	return srv, &bodies
}

// forwardedMessages decodes the messages of a chat body the upstream
// received.
func forwardedMessages(t *testing.T, body []byte) []chatapi.Message {
	t.Helper()
	var chat struct {
		Messages []chatapi.Message `json:"messages"`
	}
	if err := json.Unmarshal(body, &chat); err != nil {
		t.Fatalf("upstream received %q: %v", body, err)
	}
	return chat.Messages
}

// TestProxyPassesThroughNonChatPOSTUnchanged: POST bodies on non-chat
// paths must reach the upstream byte-for-byte (embeddings, moderations,
// anything the proxy does not understand).
func TestProxyPassesThroughNonChatPOSTUnchanged(t *testing.T) {
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxy(testSystem(t).System, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	sent := `{"input":"some text","model":"embed-1"}`
	resp, err := front.Client().Post(front.URL+"/v1/embeddings", "application/json", strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(*bodies) != 1 || string((*bodies)[0]) != sent {
		t.Fatalf("upstream saw %q, want untouched %q", *bodies, sent)
	}
}

// TestProxyChatWithoutUserMessageUnchanged: a chat request with no user
// turn anywhere has nothing to augment and must pass through
// byte-for-byte.
func TestProxyChatWithoutUserMessageUnchanged(t *testing.T) {
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxy(testSystem(t).System, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	sent := `{"model":"m","messages":[{"role":"system","content":"be terse"},{"role":"assistant","content":"ok"}]}`
	resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(*bodies) != 1 || string((*bodies)[0]) != sent {
		t.Fatalf("upstream saw %q, want untouched %q", *bodies, sent)
	}
}

// TestProxyAugmentsLastUserTurnEvenMidConversation: when the final
// message is an assistant turn, the proxy still augments the *last
// user* turn — the complement attaches to what the user asked, and
// later assistant turns pass through untouched.
func TestProxyAugmentsLastUserTurnEvenMidConversation(t *testing.T) {
	upstream, bodies := captureUpstream(t)
	sys := testSystem(t).System
	proxy, err := NewProxy(sys, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	sent := `{"model":"m","messages":[{"role":"user","content":"Explain how tides form."},{"role":"assistant","content":"Gravity."}]}`
	resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(*bodies) != 1 {
		t.Fatalf("upstream saw %d bodies", len(*bodies))
	}
	got := forwardedMessages(t, (*bodies)[0])
	if want := sys.Augment("Explain how tides form.", ""); got[0].Content != want {
		t.Fatalf("user turn = %q, want augmented %q", got[0].Content, want)
	}
	if got[1].Content != "Gravity." {
		t.Fatalf("assistant turn rewritten to %q", got[1].Content)
	}
}

// TestProxyUsesServingCore: a proxy whose system has the serving core
// enabled serves repeated identical chat requests from the complement
// cache — one computation, one cache hit, visible in the stats.
func TestProxyUsesServingCore(t *testing.T) {
	upstream, _ := captureUpstream(t)
	sys := newSystem(testSystem(t).System.model)
	if err := sys.EnableServing(ServingConfig{}); err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy(sys, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	sent := `{"model":"m","seed":"s7","messages":[{"role":"user","content":"Explain how tides form."}]}`
	for i := 0; i < 2; i++ {
		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(sent))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	stats := sys.core.Stats()
	if stats.Requests != 2 || stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("serving stats = %+v, want 2 requests with 1 cache hit", stats)
	}
}
