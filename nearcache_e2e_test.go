package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chatapi"
	"repro/internal/ring"
	"repro/internal/sft"
	"repro/internal/wire"
)

// swapHandler is a replica address whose process can be replaced: the
// listener stays, the handler behind it changes.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// otherModel returns a model that complements differently from m: the
// same base, every category's facet propensities rotated.
func otherModel(t *testing.T, m *sft.Model) *sft.Model {
	t.Helper()
	blob, err := m.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Format string          `json:"format"`
		Base   json.RawMessage `json:"base"`
		Seed   uint64          `json:"seed"`
		Policy sft.Policy      `json:"policy"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Seed++
	for _, row := range doc.Policy.CategoryFacet {
		rotated := append(append([]float64(nil), row[3:]...), row[:3]...)
		copy(row, rotated)
	}
	if blob, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	out, err := sft.Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterE2ENearCache drives the cluster chain — proxy, ring client
// with its near cache and a running prober, three serving replicas, an
// upstream that records what it receives — through the near cache's
// whole life. A repeated chat is answered at the proxy: no replica sees
// a second request and the upstream receives the same bytes. The owner
// restarted with another model is noticed by its next probe, and the
// same chat then carries the new model's complement. A fleet still
// running a build from before the two-rung ladder, mid rolling upgrade,
// flags its answers "trim": the value reaches the client untouched on
// every request, repeats included, and is never remembered. With the
// fleet gone the remembered chat is still served in full while a new
// one is flagged raw.
func TestClusterE2ENearCache(t *testing.T) {
	model := testSystem(t).System.model
	const probeInterval = 40 * time.Millisecond

	replicas := make([]*swapHandler, 3)
	systems := make([]*System, 3)
	urls := make([]string, 3)
	servers := make([]*httptest.Server, 3)
	serve := func(i int, m *sft.Model) {
		systems[i] = NewSystem(m)
		if err := systems[i].EnableServing(ServingConfig{CacheSize: 64}); err != nil {
			t.Fatal(err)
		}
		replicas[i].set(systems[i].Handler())
	}
	for i := range replicas {
		replicas[i] = &swapHandler{}
		serve(i, model)
		servers[i] = httptest.NewServer(replicas[i])
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}
	var mu sync.Mutex
	var received [][]byte
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		received = append(received, body)
		mu.Unlock()
		_, _ = w.Write([]byte(`{"choices":[]}`))
	}))
	defer upstream.Close()

	client, err := ring.NewClient(ring.Config{
		Replicas: urls, Degrade: true, RequestTimeout: 5 * time.Second, CacheSize: 64,
		Health: ring.HealthConfig{ProbeInterval: probeInterval, ProbeTimeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client.Membership().ProbeAll(ctx) // every record has its member's instance before traffic
	client.Start(ctx)
	proxy, err := NewProxyWith(client, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	// chat posts one single-turn chat and returns the X-PAS-Degraded
	// value and what the upstream received for it.
	chat := func(prompt string) (degraded string, forwarded []byte) {
		t.Helper()
		body, err := json.Marshal(chatapi.ChatRequest{Model: "m", Messages: []chatapi.Message{{Role: "user", Content: prompt}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(front.URL+"/v1/chat/completions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, _ = io.Copy(io.Discard, resp.Body); resp.StatusCode != http.StatusOK {
			t.Fatalf("chat %q answered %d", prompt, resp.StatusCode)
		}
		mu.Lock()
		defer mu.Unlock()
		return resp.Header.Get(wire.DegradedHeader), received[len(received)-1]
	}
	sent := func(forwarded []byte) string {
		t.Helper()
		var req chatapi.ChatRequest
		if err := json.Unmarshal(forwarded, &req); err != nil || len(req.Messages) != 1 {
			t.Fatalf("upstream received %q: %v", forwarded, err)
		}
		return req.Messages[0].Content
	}
	replicaRequests := func() (n int64) {
		for _, s := range systems {
			n += s.core.Stats().Requests
		}
		return n
	}

	// A prompt the two models complement differently.
	other := otherModel(t, model)
	prompt := ""
	for _, p := range benchPrompts(40) {
		if model.Complement(p, "") != other.Complement(p, "") {
			prompt = p
			break
		}
	}
	if prompt == "" {
		t.Fatal("the rotated model complements every prompt as the original does")
	}

	// Miss, then near hit: same bytes upstream, no second replica request.
	level, first := chat(prompt)
	if want := NewSystem(model).Augment(prompt, ""); level != "" || sent(first) != want {
		t.Fatalf("first chat: degraded %q, upstream got %q; want the model's %q", level, sent(first), want)
	}
	served := replicaRequests()
	level, second := chat(prompt)
	if level != "" || !bytes.Equal(first, second) {
		t.Fatalf("repeat: degraded %q, upstream got\n%s\nfirst time\n%s", level, second, first)
	}
	if s := client.Stats(); replicaRequests() != served || served != 1 || s.Cache.Hits != 1 || s.Cache.Misses != 1 || s.Requests != 2 {
		t.Fatalf("repeat reached a replica: %d replica requests (was %d); proxy %+v of %d requests", replicaRequests(), served, s.Cache, s.Requests)
	}

	// The owner comes back with another model; its next probe reads a new
	// instance, and nothing remembered from before is served again.
	owner, _ := client.Owner(prompt, "")
	flushes := client.Stats().Cache.Flushes
	for i, u := range urls {
		if u == owner {
			serve(i, other)
		}
	}
	restarted := time.Now()
	for client.Stats().Cache.Flushes == flushes {
		if time.Since(restarted) > 10*time.Second {
			t.Fatalf("no probe noticed the restarted replica in 10s (probe interval %v): %+v", probeInterval, client.Stats().Members)
		}
		time.Sleep(probeInterval / 4)
	}
	t.Logf("restart noticed after %v (probe interval %v)", time.Since(restarted), probeInterval)
	level, third := chat(prompt)
	if want := NewSystem(other).Augment(prompt, ""); level != "" || sent(third) != want {
		t.Fatalf("after the restart: degraded %q, upstream got %q; want the new model's %q", level, sent(third), want)
	}

	// A fleet of older replicas flagging "trim", a value this tree never
	// sends: passed through every time, never remembered.
	var trims atomic.Int64
	for _, r := range replicas {
		inner := *r.h.Load().(*http.Handler)
		r.set(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path != "/v1/augment" {
				inner.ServeHTTP(w, req)
				return
			}
			body, _ := io.ReadAll(req.Body)
			ar, _ := wire.DecodeAugmentRequest(body)
			trims.Add(1)
			w.Header().Set(wire.DegradedHeader, "trim")
			_, _ = w.Write(wire.AppendAugmentResponse(nil, &wire.AugmentResponse{Prompt: ar.Prompt, Augmented: ar.Prompt + "\nBe specific.", Degraded: true, DegradedLevel: "trim"}))
		}))
	}
	for i := 1; i <= 2; i++ {
		if level, got := chat("a prompt first seen under pressure"); level != "trim" || !strings.HasSuffix(sent(got), "\nBe specific.") || trims.Load() != int64(i) {
			t.Fatalf("older fleet, request %d: degraded %q, upstream got %q, %d replica answers", i, level, sent(got), trims.Load())
		}
	}
	if level, got := chat(prompt); level != "" || !bytes.Equal(got, third) || trims.Load() != 2 {
		t.Fatalf("remembered chat under an older fleet: degraded %q, %d replica answers, upstream got %q", level, trims.Load(), sent(got))
	}

	// The fleet gone: what is remembered is still full quality, the rest
	// is the flagged raw prompt.
	cancel()
	for _, s := range servers {
		s.Close()
	}
	if level, got := chat(prompt); level != "" || !bytes.Equal(got, third) {
		t.Fatalf("remembered chat with the fleet down: degraded %q, upstream got %q", level, sent(got))
	}
	if level, got := chat("a prompt nobody has seen"); level != "1" || sent(got) != "a prompt nobody has seen" {
		t.Fatalf("new chat with the fleet down: degraded %q, upstream got %q; want the raw prompt flagged 1", level, sent(got))
	}
}
