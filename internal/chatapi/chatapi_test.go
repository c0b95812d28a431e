package chatapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/simllm"
	"repro/internal/textkit"
	"repro/internal/tokenizer"
)

var (
	tokOnce sync.Once
	tok     *tokenizer.Tokenizer
	tokErr  error
)

func testTokenizer(t testing.TB) *tokenizer.Tokenizer {
	t.Helper()
	tokOnce.Do(func() {
		cfg := corpus.DefaultConfig()
		cfg.Size = 800
		pool, err := corpus.Generate(cfg)
		if err != nil {
			tokErr = err
			return
		}
		texts := make([]string, len(pool))
		for i, p := range pool {
			texts[i] = p.Text
		}
		tok, tokErr = tokenizer.Train(texts, tokenizer.Config{VocabSize: 512, MinPairFreq: 2})
	})
	if tokErr != nil {
		t.Fatal(tokErr)
	}
	return tok
}

func testServer(t testing.TB, cfg ServerConfig) *httptest.Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func testClient(t testing.TB, url string) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{BaseURL: url, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Models: []string{"nope"}}); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := NewServer(ServerConfig{RatePerMinute: -1}); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Error("empty URL should fail")
	}
	if _, err := NewClient(ClientConfig{BaseURL: "http://x", MaxRetries: -1}); err == nil {
		t.Error("negative retries should fail")
	}
}

func TestChatCompletionEndToEnd(t *testing.T) {
	srv := testServer(t, ServerConfig{Tokenizer: testTokenizer(t)})
	c := testClient(t, srv.URL)

	resp, err := c.ChatCompletionContext(context.Background(), ChatRequest{
		Model:    simllm.GPT40613,
		Messages: []Message{{Role: "user", Content: "Explain how photosynthesis works."}},
		Seed:     "s1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != simllm.GPT40613 {
		t.Errorf("model = %q", resp.Model)
	}
	if len(resp.Choices) != 1 || resp.Choices[0].Message.Content == "" {
		t.Fatalf("bad choices: %+v", resp.Choices)
	}
	if resp.Choices[0].FinishReason != "stop" {
		t.Errorf("finish reason %q", resp.Choices[0].FinishReason)
	}
	if resp.Usage.PromptTokens == 0 || resp.Usage.CompletionTokens == 0 {
		t.Errorf("usage not metered: %+v", resp.Usage)
	}
	if resp.Usage.TotalTokens != resp.Usage.PromptTokens+resp.Usage.CompletionTokens {
		t.Errorf("usage total inconsistent: %+v", resp.Usage)
	}
	if !strings.HasPrefix(resp.ID, "chatcmpl-") {
		t.Errorf("id = %q", resp.ID)
	}

	// Determinism across HTTP for a fixed seed.
	again, err := c.ChatCompletionContext(context.Background(), ChatRequest{
		Model:    simllm.GPT40613,
		Messages: []Message{{Role: "user", Content: "Explain how photosynthesis works."}},
		Seed:     "s1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Choices[0].Message.Content != resp.Choices[0].Message.Content {
		t.Error("same seed should reproduce the completion")
	}
	if again.ID != resp.ID {
		t.Error("same request should get same id (no hidden clock)")
	}
}

func TestChatCompletionMatchesInProcessModel(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c := testClient(t, srv.URL)
	prompt := "Give me advice on keeping houseplants alive."
	resp, err := c.ChatCompletionContext(context.Background(), ChatRequest{
		Model:    simllm.Qwen272B,
		Messages: []Message{{Role: "user", Content: prompt}},
		Seed:     "x",
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := simllm.MustModel(simllm.Qwen272B).ChatContext(context.Background(),
		[]simllm.Message{{Role: "user", Content: prompt}}, simllm.Options{Salt: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Choices[0].Message.Content != local {
		t.Fatal("HTTP and in-process responses must be identical")
	}
}

func TestServerErrors(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c := testClient(t, srv.URL)
	if _, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: "no-such-model",
		Messages: []Message{{Role: "user", Content: "hi"}}}); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: simllm.GPT40613}); err == nil {
		t.Error("missing messages should fail")
	}
	if _, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: simllm.GPT40613,
		Messages: []Message{{Role: "martian", Content: "hi"}}}); err == nil {
		t.Error("bad role should fail")
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/chat/completions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", resp.StatusCode)
	}
}

func TestModelsEndpoint(t *testing.T) {
	srv := testServer(t, ServerConfig{Models: []string{simllm.GPT4Turbo, simllm.Qwen27B}})
	c := testClient(t, srv.URL)
	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("models = %v", models)
	}
	if models[0] != simllm.GPT4Turbo || models[1] != simllm.Qwen27B {
		t.Fatalf("models = %v (want sorted roster)", models)
	}
}

func TestRateLimitPerKey(t *testing.T) {
	now := time.Unix(1000, 0)
	srv := testServer(t, ServerConfig{RatePerMinute: 2, Now: func() time.Time { return now }})
	keyed := func(key string) *Client {
		c, err := NewClient(ClientConfig{BaseURL: srv.URL, APIKey: key, Backoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	req := ChatRequest{Model: simllm.GPT40613, Messages: []Message{{Role: "user", Content: "hi there"}}}

	a := keyed("alice")
	for i := 0; i < 2; i++ {
		if _, err := a.ChatCompletionContext(context.Background(), req); err != nil {
			t.Fatalf("request %d should pass: %v", i, err)
		}
	}
	if _, err := a.ChatCompletionContext(context.Background(), req); err == nil {
		t.Fatal("third request should be limited")
	} else if !strings.Contains(err.Error(), "429") {
		t.Fatalf("want 429, got %v", err)
	}
	// A different key has its own budget.
	if _, err := keyed("bob").ChatCompletionContext(context.Background(), req); err != nil {
		t.Fatalf("other key should pass: %v", err)
	}
	// Window reset restores the budget.
	now = now.Add(2 * time.Minute)
	if _, err := a.ChatCompletionContext(context.Background(), req); err != nil {
		t.Fatalf("after window reset: %v", err)
	}
}

func TestClientRetriesOn5xxThenSucceeds(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	real, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := real.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		f := fails
		if fails > 0 {
			fails--
		}
		mu.Unlock()
		if f > 0 {
			http.Error(w, `{"error":{"message":"boom","type":"server_error"}}`, http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c, err := NewClient(ClientConfig{BaseURL: srv.URL, MaxRetries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: simllm.GPT40613,
		Messages: []Message{{Role: "user", Content: "hello"}}, Seed: "r"})
	if err != nil {
		t.Fatalf("retries should recover: %v", err)
	}
	if resp.Choices[0].Message.Content == "" {
		t.Fatal("empty content after retry")
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, `{"error":{"message":"bad","type":"invalid_request_error"}}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, MaxRetries: 5, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: "m", Messages: []Message{{Role: "user", Content: "x"}}}); err == nil {
		t.Fatal("4xx should fail")
	}
	if calls != 1 {
		t.Fatalf("4xx retried %d times", calls)
	}
}

func TestRemoteAdapter(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c := testClient(t, srv.URL)
	if _, err := NewRemote(nil, "x"); err == nil {
		t.Error("nil client should fail")
	}
	if _, err := NewRemote(c, ""); err == nil {
		t.Error("empty model should fail")
	}
	remote, err := NewRemote(c, simllm.GPT4Turbo)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Name() != simllm.GPT4Turbo {
		t.Error("name")
	}
	out, err := remote.ChatContext(context.Background(), []simllm.Message{{Role: "user", Content: "Explain the science of fermentation."}},
		simllm.Options{Salt: "remote"})
	if err != nil {
		t.Fatal(err)
	}
	local, _ := simllm.MustModel(simllm.GPT4Turbo).ChatContext(context.Background(),
		[]simllm.Message{{Role: "user", Content: "Explain the science of fermentation."}},
		simllm.Options{Salt: "remote"})
	if out != local {
		t.Fatal("remote adapter must match in-process model")
	}
}

func TestUsageMetersAugmentationOverhead(t *testing.T) {
	// The point of metering: an augmented request costs measurably more
	// prompt tokens than the bare one.
	srv := testServer(t, ServerConfig{Tokenizer: testTokenizer(t)})
	c := testClient(t, srv.URL)
	bare := ChatRequest{Model: simllm.GPT40613, Seed: "u",
		Messages: []Message{{Role: "user", Content: "Explain how tides form."}}}
	aug := ChatRequest{Model: simllm.GPT40613, Seed: "u",
		Messages: []Message{{Role: "user", Content: "Explain how tides form.\nPlease provide background; cover all aspects."}}}
	rb, err := c.ChatCompletionContext(context.Background(), bare)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := c.ChatCompletionContext(context.Background(), aug)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Usage.PromptTokens <= rb.Usage.PromptTokens {
		t.Fatalf("augmented prompt tokens %d should exceed bare %d",
			ra.Usage.PromptTokens, rb.Usage.PromptTokens)
	}
}

func BenchmarkChatCompletion(b *testing.B) {
	srv := testServer(b, ServerConfig{Tokenizer: testTokenizer(b)})
	c := testClient(b, srv.URL)
	req := ChatRequest{Model: simllm.GPT40613, Seed: "bench",
		Messages: []Message{{Role: "user", Content: "Explain how photosynthesis works."}}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.ChatCompletionContext(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStreamingAssemblesFullCompletion(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c := testClient(t, srv.URL)
	req := ChatRequest{Model: simllm.GPT40613, Seed: "stream",
		Messages: []Message{{Role: "user", Content: "Explain how photosynthesis works."}}}

	var deltas []string
	streamed, err := c.ChatCompletionStream(context.Background(), req, func(d string) { deltas = append(deltas, d) })
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(deltas))
	}
	// The assembled stream must equal the non-streaming completion
	// modulo whitespace normalisation (chunks are word-joined).
	whole, err := c.ChatCompletionContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	if norm(streamed) != norm(whole.Choices[0].Message.Content) {
		t.Fatalf("streamed content diverges:\n%q\nvs\n%q", norm(streamed), norm(whole.Choices[0].Message.Content))
	}
	if streamedWords(streamed) == 0 {
		t.Fatal("no words streamed")
	}
}

// TestStreamingCancelledMidStream: a context cancelled between two
// events ends ChatCompletionStream promptly with the context's error,
// and the upstream sees the hang-up, while the upstream is holding the
// stream open.
func TestStreamingCancelledMidStream(t *testing.T) {
	upstreamGone := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, `data: {"choices":[{"delta":{"content":"first"}}]}`+"\n\n")
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
			close(upstreamGone)
		case <-time.After(10 * time.Second):
		}
	}))
	defer srv.Close()
	c := testClient(t, srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	var deltas []string
	_, err := c.ChatCompletionStream(ctx, ChatRequest{Model: "m",
		Messages: []Message{{Role: "user", Content: "x"}}}, func(d string) {
		deltas = append(deltas, d)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled stream took %v to return", elapsed)
	}
	if len(deltas) != 1 || deltas[0] != "first" {
		t.Fatalf("deltas = %q, want the one event sent before the cancel", deltas)
	}
	select {
	case <-upstreamGone:
	case <-time.After(2 * time.Second):
		t.Fatal("the upstream never saw the cancelled stream's hang-up")
	}
}

func TestStreamingErrorsStayJSON(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	c := testClient(t, srv.URL)
	if _, err := c.ChatCompletionStream(context.Background(), ChatRequest{Model: "nope",
		Messages: []Message{{Role: "user", Content: "hi"}}}, nil); err == nil {
		t.Fatal("unknown model should fail on the streaming path too")
	}
}

// newTestHTTP serves an existing Server (used when the test needs access
// to the Server value itself, e.g. for cache statistics).
func newTestHTTP(t testing.TB, s *Server) string {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// streamedWords is a helper for tests: word count of the assembled text.
func streamedWords(s string) int { return textkit.WordCount(s) }
