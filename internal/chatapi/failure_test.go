package chatapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simllm"
)

// Failure-injection tests: the client must fail cleanly (bounded time,
// descriptive error, no panic) when the far side misbehaves.

func TestClientTimesOutOnHangingServer(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done(): // client gave up; let Close proceed
		}
	}))
	// LIFO: release the handler before srv.Close waits on it.
	defer srv.Close()
	defer close(release)

	c, err := NewClient(ClientConfig{
		BaseURL:    srv.URL,
		MaxRetries: 0,
		HTTPClient: &http.Client{Timeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.ChatCompletionContext(context.Background(), ChatRequest{Model: "m", Messages: []Message{{Role: "user", Content: "x"}}})
	if err == nil {
		t.Fatal("hanging server should time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout not honoured")
	}
}

func TestClientRejectsGarbageJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "{this is not json")
	}))
	defer srv.Close()
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: "m",
		Messages: []Message{{Role: "user", Content: "x"}}}); err == nil {
		t.Fatal("garbage JSON should fail")
	}
}

func TestClientRejectsEmptyChoices(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"x","model":"m","choices":[]}`)
	}))
	defer srv.Close()
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: "m",
		Messages: []Message{{Role: "user", Content: "x"}}}); err == nil ||
		!strings.Contains(err.Error(), "no choices") {
		t.Fatalf("want no-choices error, got %v", err)
	}
}

func TestStreamTruncatedWithoutDone(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "data: {\"id\":\"x\",\"model\":\"m\",\"choices\":[{\"index\":0,\"delta\":{\"content\":\"partial \"},\"finish_reason\":null}]}\n\n")
		// connection closes without [DONE]
	}))
	defer srv.Close()
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ChatCompletionStream(context.Background(), ChatRequest{Model: "m",
		Messages: []Message{{Role: "user", Content: "x"}}}, nil)
	if err == nil || !strings.Contains(err.Error(), "[DONE]") {
		t.Fatalf("truncated stream should fail with missing [DONE], got %v", err)
	}
}

func TestStreamCorruptChunk(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "data: {corrupt\n\n")
	}))
	defer srv.Close()
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ChatCompletionStream(context.Background(), ChatRequest{Model: "m",
		Messages: []Message{{Role: "user", Content: "x"}}}, nil)
	if err == nil || !strings.Contains(err.Error(), "bad stream chunk") {
		t.Fatalf("corrupt chunk should fail, got %v", err)
	}
}

func TestServerRejectsOversizedBody(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	huge := strings.Repeat("x", 2<<20) // 2 MiB, over the 1 MiB cap
	resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
		strings.NewReader(`{"model":"`+simllm.GPT40613+`","messages":[{"role":"user","content":"`+huge+`"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("oversized body should be rejected")
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, `{"error":{"message":"down","type":"server_error"}}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, err := NewClient(ClientConfig{BaseURL: srv.URL, MaxRetries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ChatCompletionContext(context.Background(), ChatRequest{Model: "m",
		Messages: []Message{{Role: "user", Content: "x"}}}); err == nil {
		t.Fatal("persistent 5xx should fail after retries")
	}
	if calls != 3 { // initial + 2 retries
		t.Fatalf("server called %d times, want 3", calls)
	}
}
