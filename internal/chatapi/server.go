// Package chatapi exposes the simulated LLM roster behind an
// OpenAI-style chat-completions HTTP API, with BPE token accounting and
// per-key rate limiting. It makes the paper's deployment claim — "PAS can
// be plugged into any other LLMs available via public APIs" — literal:
// the plug-and-play examples drive a downstream model over HTTP exactly
// as they would a commercial endpoint, and usage metering shows the token
// overhead a complementary prompt adds to each request.
package chatapi

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simllm"
	"repro/internal/tokenizer"
)

// Message is one chat turn, wire-compatible with the common schema.
type Message struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// ChatRequest is the body of POST /v1/chat/completions.
type ChatRequest struct {
	Model       string    `json:"model"`
	Messages    []Message `json:"messages"`
	Temperature float64   `json:"temperature,omitempty"`
	// Seed makes sampling reproducible; it maps to the simulator's salt.
	Seed string `json:"seed,omitempty"`
	// Stream requests server-sent events instead of a single JSON body.
	Stream bool `json:"stream,omitempty"`
}

// Usage is the token accounting block.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// Choice is one completion alternative (the server returns exactly one).
type Choice struct {
	Index        int     `json:"index"`
	Message      Message `json:"message"`
	FinishReason string  `json:"finish_reason"`
}

// ChatResponse is the reply of POST /v1/chat/completions.
type ChatResponse struct {
	ID      string   `json:"id"`
	Model   string   `json:"model"`
	Choices []Choice `json:"choices"`
	Usage   Usage    `json:"usage"`
}

// apiError is the JSON error envelope.
type apiError struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

func newAPIError(msg, typ string) apiError {
	var e apiError
	e.Error.Message = msg
	e.Error.Type = typ
	return e
}

// ServerConfig configures the endpoint.
type ServerConfig struct {
	// Models lists the servable model names; empty means the full
	// built-in roster.
	Models []string
	// RatePerMinute is the per-API-key request budget; 0 disables
	// limiting.
	RatePerMinute int
	// Tokenizer meters usage; nil disables usage accounting (all counts
	// zero).
	Tokenizer *tokenizer.Tokenizer
	// Now injects the clock for the rate limiter (defaults to
	// time.Now); tests pin it.
	Now func() time.Time
	// CacheSize enables an LRU response cache with that many entries;
	// 0 disables caching. Sound because seeded completions are
	// deterministic.
	CacheSize int
}

// Server hosts the chat-completions API.
type Server struct {
	models  map[string]*simllm.Model
	names   []string
	tok     *tokenizer.Tokenizer
	limiter *rateLimiter
	cache   *lruCache
}

// NewServer builds a server for the given configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	names := cfg.Models
	if len(names) == 0 {
		names = simllm.Roster()
	}
	s := &Server{models: make(map[string]*simllm.Model, len(names)), tok: cfg.Tokenizer}
	for _, n := range names {
		p, err := simllm.LookupProfile(n)
		if err != nil {
			return nil, fmt.Errorf("chatapi: %w", err)
		}
		m, err := simllm.New(p)
		if err != nil {
			return nil, err
		}
		s.models[n] = m
		s.names = append(s.names, n)
	}
	sort.Strings(s.names)
	if cfg.RatePerMinute < 0 {
		return nil, fmt.Errorf("chatapi: RatePerMinute must be >= 0, got %d", cfg.RatePerMinute)
	}
	if cfg.RatePerMinute > 0 {
		now := cfg.Now
		if now == nil {
			now = time.Now
		}
		s.limiter = newRateLimiter(cfg.RatePerMinute, time.Minute, now)
	}
	if cfg.CacheSize < 0 {
		return nil, fmt.Errorf("chatapi: CacheSize must be >= 0, got %d", cfg.CacheSize)
	}
	if cfg.CacheSize > 0 {
		s.cache = newLRUCache(cfg.CacheSize)
	}
	return s, nil
}

// RegisterMetrics exposes the server's status on reg under the
// pas_chatllm_ namespace, read at scrape time.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(e *obs.Emitter) { e.Fields("pas_chatllm_", s.status()) })
}

// Handler returns the HTTP handler:
//
//	POST /v1/chat/completions
//	GET  /v1/models
//	GET  /v1/status
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/chat/completions", s.handleChat)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/status", s.handleStatus)
	return mux
}

// status is the GET /v1/status body: operational state of the endpoint
// including the response-cache counters. A field's metric tag is its
// /metricsz series under pas_chatllm_ (obs.Emitter.Fields).
type status struct {
	Models      int  `json:"models" metric:"gauge models Models served."`
	RateLimited bool `json:"rate_limited"`
	Cache       struct {
		Enabled bool  `json:"enabled"`
		Entries int   `json:"entries" metric:"gauge cache_entries Response-cache entries resident."`
		Hits    int64 `json:"hits" metric:"counter cache_hits_total Response-cache hits."`
		Misses  int64 `json:"misses" metric:"counter cache_misses_total Response-cache misses."`
	} `json:"cache"`
}

func (s *Server) status() status {
	st := status{Models: len(s.names), RateLimited: s.limiter != nil}
	if s.cache != nil {
		st.Cache.Enabled = true
		st.Cache.Entries, st.Cache.Hits, st.Cache.Misses = s.cache.stats()
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.status())
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type model struct {
		ID string `json:"id"`
	}
	out := struct {
		Data []model `json:"data"`
	}{}
	for _, n := range s.names {
		out.Data = append(out.Data, model{ID: n})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, newAPIError("use POST", "invalid_request_error"))
		return
	}
	if s.limiter != nil && !s.limiter.allow(apiKey(r)) {
		writeJSON(w, http.StatusTooManyRequests, newAPIError("rate limit exceeded", "rate_limit_error"))
		return
	}
	var req ChatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, newAPIError("invalid JSON: "+err.Error(), "invalid_request_error"))
		return
	}
	m, ok := s.models[req.Model]
	if !ok {
		writeJSON(w, http.StatusNotFound, newAPIError(fmt.Sprintf("model %q not found", req.Model), "invalid_request_error"))
		return
	}
	if len(req.Messages) == 0 {
		writeJSON(w, http.StatusBadRequest, newAPIError("messages are required", "invalid_request_error"))
		return
	}
	msgs := make([]simllm.Message, len(req.Messages))
	var promptText strings.Builder
	for i, msg := range req.Messages {
		msgs[i] = simllm.Message{Role: msg.Role, Content: msg.Content}
		promptText.WriteString(msg.Content)
		promptText.WriteString("\n")
	}
	cacheKey := ""
	if s.cache != nil && !req.Stream {
		cacheKey = fmt.Sprintf("%s\x00%v\x00%s\x00%s", req.Model, req.Temperature, req.Seed, promptText.String())
		if cached, ok := s.cache.get(cacheKey); ok {
			obs.AddEvent(r.Context(), "chatllm.cache", "verdict", "hit")
			writeJSON(w, http.StatusOK, cached)
			return
		}
		obs.AddEvent(r.Context(), "chatllm.cache", "verdict", "miss")
	}
	_, genSpan := obs.StartSpan(r.Context(), "chatllm.generate")
	genSpan.SetAttr("model", req.Model)
	content, err := m.ChatContext(r.Context(), msgs, simllm.Options{Temperature: req.Temperature, Salt: req.Seed})
	genSpan.End()
	if err != nil {
		if r.Context().Err() != nil {
			return // client already gone; nobody reads an answer
		}
		writeJSON(w, http.StatusBadRequest, newAPIError(err.Error(), "invalid_request_error"))
		return
	}
	if req.Stream {
		streamResponse(w, completionID(req, content), req.Model, content)
		return
	}
	resp := ChatResponse{
		ID:    completionID(req, content),
		Model: req.Model,
		Choices: []Choice{{
			Message:      Message{Role: "assistant", Content: content},
			FinishReason: "stop",
		}},
	}
	if s.tok != nil {
		resp.Usage.PromptTokens = s.tok.CountTokens(promptText.String())
		resp.Usage.CompletionTokens = s.tok.CountTokens(content)
		resp.Usage.TotalTokens = resp.Usage.PromptTokens + resp.Usage.CompletionTokens
	}
	if cacheKey != "" {
		s.cache.put(cacheKey, resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// completionID derives a stable id from the request and output, keeping
// the whole stack deterministic (no wall clock, no randomness).
func completionID(req ChatRequest, content string) string {
	var b strings.Builder
	b.WriteString(req.Model)
	b.WriteString(req.Seed)
	b.WriteString(content)
	var h uint64 = 1469598103934665603
	for i := 0; i < b.Len(); i++ {
		h ^= uint64(b.String()[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("chatcmpl-%016x", h)
}

func apiKey(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	if strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimPrefix(auth, "Bearer ")
	}
	return "anonymous"
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("chatapi: writing response: %v", err)
	}
}

// rateLimiter is a fixed-window per-key counter, good enough for a
// simulated public endpoint.
type rateLimiter struct {
	mu     sync.Mutex
	limit  int
	window time.Duration
	now    func() time.Time
	counts map[string]int
	start  time.Time
}

func newRateLimiter(limit int, window time.Duration, now func() time.Time) *rateLimiter {
	return &rateLimiter{limit: limit, window: window, now: now, counts: make(map[string]int), start: now()}
}

func (rl *rateLimiter) allow(key string) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	t := rl.now()
	if t.Sub(rl.start) >= rl.window {
		rl.counts = make(map[string]int)
		rl.start = t
	}
	if rl.counts[key] >= rl.limit {
		return false
	}
	rl.counts[key]++
	return true
}
