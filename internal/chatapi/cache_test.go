package chatapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"repro/internal/simllm"
)

func TestLRUBasics(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", ChatResponse{ID: "ra"})
	c.put("b", ChatResponse{ID: "rb"})
	if got, ok := c.get("a"); !ok || got.ID != "ra" {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting c evicts b.
	c.put("c", ChatResponse{ID: "rc"})
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should survive")
	}
	if n, hits, misses := c.stats(); n != 2 || hits != 2 || misses != 1 {
		t.Fatalf("stats = %d entries, %d/%d", n, hits, misses)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := newLRUCache(2)
	c.put("k", ChatResponse{ID: "v1"})
	c.put("k", ChatResponse{ID: "v2"})
	if got, _ := c.get("k"); got.ID != "v2" {
		t.Fatal("update lost")
	}
	if n, _, _ := c.stats(); n != 1 {
		t.Fatalf("len = %d", n)
	}
}

// TestLRUCapacityProperty: the cache never exceeds its capacity, for any
// insertion sequence.
func TestLRUCapacityProperty(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw)%10 + 1
		c := newLRUCache(capacity)
		for _, k := range keys {
			c.put(fmt.Sprint(k%32), ChatResponse{})
			if n, _, _ := c.stats(); n > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestServerCacheServesIdenticalResponses(t *testing.T) {
	s, err := NewServer(ServerConfig{CacheSize: 16, Tokenizer: testTokenizer(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestHTTP(t, s)
	c := testClient(t, srv)

	req := ChatRequest{Model: simllm.GPT40613, Seed: "cache",
		Messages: []Message{{Role: "user", Content: "Explain how tides form."}}}
	first, err := c.ChatCompletionContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.ChatCompletionContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != second.ID || first.Choices[0].Message.Content != second.Choices[0].Message.Content ||
		first.Usage != second.Usage {
		t.Fatal("cached response differs from original")
	}
	if st := s.status().Cache; st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}

	// Different seed must miss.
	req.Seed = "other"
	if _, err := c.ChatCompletionContext(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if misses := s.status().Cache.Misses; misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
}

func TestServerCacheValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{CacheSize: -1}); err == nil {
		t.Fatal("negative cache size should fail")
	}
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.status().Cache; st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatal("disabled cache should report zeros")
	}
}

// TestStatusSurfacesCacheCounters: the /v1/status endpoint must expose
// the lruCache hit/miss counters so operators can see cache
// effectiveness without shell access.
func TestStatusSurfacesCacheCounters(t *testing.T) {
	s, err := NewServer(ServerConfig{CacheSize: 16, Tokenizer: testTokenizer(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestHTTP(t, s)
	c := testClient(t, srv)

	req := ChatRequest{Model: simllm.GPT40613, Seed: "status",
		Messages: []Message{{Role: "user", Content: "Explain how tides form."}}}
	for i := 0; i < 2; i++ {
		if _, err := c.ChatCompletionContext(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Cache.Enabled || st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("status cache block = %+v, want enabled with 1 hit / 1 miss / 1 entry", st.Cache)
	}
	if st.Models == 0 {
		t.Fatalf("status = %+v, want model count", st)
	}
}

// TestStatusWithCacheDisabled reports a disabled cache rather than
// fake zeros-with-enabled.
func TestStatusWithCacheDisabled(t *testing.T) {
	s, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/status", nil))
	var st status
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Enabled || st.Cache.Entries != 0 {
		t.Fatalf("disabled cache reported as %+v", st.Cache)
	}
}
