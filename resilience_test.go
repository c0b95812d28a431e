package pas

// Degradation and fault-injection tests for the public surface: the
// acceptance bar is that with the augmentation side scripted to fail,
// the proxy and the augment handler keep answering 200 with the raw
// prompt (zero PAS-attributable 5xx), and every fallback is visible in
// /v1/stats and the X-PAS-Degraded header.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/serving"
	"repro/internal/simllm"
)

// degradedSystem builds a system (fail-open per degrade) whose serving
// core has one computation slot, no queue, and a complement function
// that can be parked on demand: send a "block" prompt, receive on
// entered, and the next real request is guaranteed to shed.
func degradedSystem(t *testing.T, degrade bool) (sys *System, entered chan struct{}, release chan struct{}) {
	t.Helper()
	sys = NewSystem(testSystem(t).System.model)
	entered = make(chan struct{})
	release = make(chan struct{})
	core, err := serving.New(func(prompt, salt string) string {
		if prompt == "block" {
			entered <- struct{}{}
			<-release
		}
		return sys.Complement(prompt, salt)
	}, serving.Config{CacheSize: -1, MaxInFlight: 1, QueueDepth: 0, Degrade: degrade})
	if err != nil {
		t.Fatal(err)
	}
	sys.core = core
	return sys, entered, release
}

// occupySlot parks the single computation slot and returns the cleanup
// that releases it and waits for the parked request to finish.
func occupySlot(t *testing.T, sys *System, entered, release chan struct{}) func() {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := sys.AugmentContextLevel(context.Background(), "block", "")
		done <- err
	}()
	<-entered
	return func() {
		close(release)
		if err := <-done; err != nil {
			t.Errorf("parked request failed: %v", err)
		}
	}
}

// TestProxyDegradesToRawPromptNot503 is the acceptance scenario: the
// augmentation path is saturated, yet the proxied chat request comes
// back 200 with the un-augmented prompt forwarded upstream, the
// response is flagged X-PAS-Degraded, and /v1/stats counts the
// fallback. No PAS-side failure becomes a user-visible 5xx.
func TestProxyDegradesToRawPromptNot503(t *testing.T) {
	sys, entered, release := degradedSystem(t, true)
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxy(sys, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	free := occupySlot(t, sys, entered, release)
	defer free()

	const prompt = "Explain how tides form."
	sent := `{"model":"m","messages":[{"role":"user","content":"` + prompt + `"}]}`
	resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (augmentation failure must not be user-visible)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-PAS-Degraded"); got != "1" {
		t.Fatalf("X-PAS-Degraded = %q, want 1 — degradation must never be silent", got)
	}
	if len(*bodies) != 1 {
		t.Fatalf("upstream saw %d bodies, want 1", len(*bodies))
	}
	if got := forwardedMessages(t, (*bodies)[0])[0].Content; got != prompt {
		t.Fatalf("upstream saw %q, want the raw prompt %q", got, prompt)
	}
	st := sys.core.Stats()
	if st.Degraded != 1 || st.ShedQueueFull != 1 {
		t.Fatalf("stats = %+v, want degraded=1 matching shed_queue_full=1", st)
	}
}

// TestAugmentHandlerDegrades: same policy on POST /v1/augment — 200,
// augmented == prompt, degraded flagged in body, header, and stats.
func TestAugmentHandlerDegrades(t *testing.T) {
	sys, entered, release := degradedSystem(t, true)
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()

	free := occupySlot(t, sys, entered, release)
	defer free()

	resp, err := srv.Client().Post(srv.URL+"/v1/augment", "application/json",
		strings.NewReader(`{"prompt":"Explain how tides form."}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-PAS-Degraded") != "1" {
		t.Fatal("missing X-PAS-Degraded header")
	}
	var ar AugmentResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Degraded || ar.Complement != "" || ar.Augmented != ar.Prompt {
		t.Fatalf("degraded response = %+v, want augmented == raw prompt", ar)
	}
	if got := sys.core.Stats().Degraded; got != 1 {
		t.Fatalf("stats degraded = %d, want 1", got)
	}
}

// TestAugmentHandlerFollowerOutlivesLeadersClient is the single-flight
// follower fix on the HTTP surface: two clients ask for the same prompt
// while the one slot is held, the first — the queued leader — hangs up,
// and the second is answered 200 at full quality once the slot frees.
// It used to get the leader's "context canceled" as a 503 without
// Retry-After (a 400 from the proxy) from a fail-open system.
func TestAugmentHandlerFollowerOutlivesLeadersClient(t *testing.T) {
	sys := NewSystem(testSystem(t).System.model)
	entered, release := make(chan struct{}), make(chan struct{})
	core, err := serving.New(func(prompt, salt string) string {
		if prompt == "block" {
			entered <- struct{}{}
			<-release
		}
		return sys.Complement(prompt, salt)
	}, serving.Config{CacheSize: -1, MaxInFlight: 1, QueueDepth: 4, QueueWait: 5 * time.Second, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.core = core
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()
	free := occupySlot(t, sys, entered, release)

	const body = `{"prompt":"Explain how tides form."}`
	post := func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/augment", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		return srv.Client().Do(req)
	}
	wait := func(what string, cond func(serving.Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(sys.core.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 5s", what)
			}
		}
	}
	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if resp, err := post(leaderCtx); err == nil {
			resp.Body.Close()
		}
	}()
	wait("the leader queues", func(s serving.Stats) bool { return s.QueueDepth == 1 })

	type reply struct {
		status int
		flag   string
		ar     AugmentResponse
		err    error
	}
	follower := make(chan reply, 1)
	go func() {
		resp, err := post(context.Background())
		if err != nil {
			follower <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		r := reply{status: resp.StatusCode, flag: resp.Header.Get("X-PAS-Degraded")}
		r.err = json.NewDecoder(resp.Body).Decode(&r.ar)
		follower <- r
	}()
	// The follower has entered the core (the occupier, the leader and it
	// make three) and attaches to the leader's call a moment later; should
	// it lose that race it leads the key itself, and is answered the same.
	wait("the follower enters the core", func(s serving.Stats) bool { return s.Requests == 3 })
	time.Sleep(20 * time.Millisecond)

	hangUp()
	<-leaderDone
	free()
	got := <-follower
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.status != http.StatusOK || got.flag != "" || got.ar.Degraded || got.ar.Complement == "" {
		t.Fatalf("follower with a live client: status %d, X-PAS-Degraded %q, body %+v; want a full-quality 200",
			got.status, got.flag, got.ar)
	}
}

// TestEveryNonFull200CarriesDegradedHeader walks one fail-open system
// through every way of answering 200 — full quality, fail-open while
// saturated, full quality again once the slot is free — and checks on
// every surface
// (POST /v1/augment, the proxy, the ring client against that handler)
// that PAS has exactly two answers, in both directions: a 200 is either
// unflagged with augmented == cat(p, M_p(p)), or flagged "1" with no
// complement and augmented == p byte for byte. Nothing in between — a
// proxy whose augmenter rewords the prompt instead of extending it
// included: the user's words go upstream as sent, flagged.
func TestEveryNonFull200CarriesDegradedHeader(t *testing.T) {
	sys, entered, release := degradedSystem(t, true)
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxy(sys, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()
	reworder, err := NewProxyWith(rewordAugmenter, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	rewordFront := httptest.NewServer(reworder)
	defer rewordFront.Close()
	client, err := ring.NewClient(ring.Config{Replicas: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}

	const prompt = "Explain how tides form."
	post := func(url, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, want 200", url, resp.StatusCode)
		}
		return resp
	}
	askProxy := func(url string) (flag, forwarded string) {
		resp := post(url+"/v1/chat/completions", `{"model":"m","messages":[{"role":"user","content":"`+prompt+`"}]}`)
		resp.Body.Close()
		return resp.Header.Get("X-PAS-Degraded"), forwardedMessages(t, (*bodies)[len(*bodies)-1])[0].Content
	}
	// Each surface sends prompt and reports the flag and the augmented
	// prompt that came back (for the proxy: that went upstream).
	surfaces := []struct {
		name string
		ask  func() (flag, augmented string)
	}{
		{"augment", func() (string, string) {
			resp := post(srv.URL+"/v1/augment", `{"prompt":"`+prompt+`"}`)
			defer resp.Body.Close()
			flag := resp.Header.Get("X-PAS-Degraded")
			var ar AugmentResponse
			if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
				t.Fatal(err)
			}
			if ar.DegradedLevel != flag || ar.Degraded != (flag != "") || (ar.Complement == "") != (flag != "") {
				t.Fatalf("body says (degraded %v, level %q, complement %q) under header %q", ar.Degraded, ar.DegradedLevel, ar.Complement, flag)
			}
			return flag, ar.Augmented
		}},
		{"proxy", func() (string, string) { return askProxy(front.URL) }},
		{"ring", func() (string, string) {
			augmented, level, err := client.AugmentContextLevel(context.Background(), prompt, "")
			if err != nil {
				t.Fatal(err)
			}
			return level, augmented
		}},
	}
	full := sys.Augment(prompt, "")
	probe := func(i int, wantFlag string) {
		t.Helper()
		s := surfaces[i%len(surfaces)]
		flag, augmented := s.ask()
		if !(flag == "" && augmented == full) && !(flag == "1" && augmented == prompt) {
			t.Fatalf("%s: flag %q with augmented %q is neither of PAS's two answers", s.name, flag, augmented)
		}
		if flag != wantFlag {
			t.Fatalf("%s: X-PAS-Degraded %q, want %q", s.name, flag, wantFlag)
		}
	}

	for i := range surfaces {
		probe(i, "")
	}
	if flag, forwarded := askProxy(rewordFront.URL); flag != "1" || forwarded != prompt {
		t.Fatalf("rewording augmenter: flag %q with %q forwarded, want 1 and the prompt as sent", flag, forwarded)
	}
	// Saturated: every request is shed and answered fail-open, each one
	// counted.
	free := occupySlot(t, sys, entered, release)
	const rounds = 3
	for i := 0; i < rounds*len(surfaces); i++ {
		probe(i, "1")
	}
	if st := sys.core.Stats(); st.Degraded != rounds*int64(len(surfaces)) {
		t.Fatalf("saturation answered %d fail-open, want %d", st.Degraded, rounds*len(surfaces))
	}
	// The slot free, the very next request is back to its full answer.
	free()
	for i := range surfaces {
		probe(i, "")
	}
}

// shedAugmenter sheds every request; priced, it also says for how long.
var shedAugmenter = augmentFunc(func(string, string) (string, bool, error) {
	return "", false, serving.ErrQueueFull
})

type pricedShedAugmenter struct{ augmentFunc }

func (pricedShedAugmenter) RetryAfterHint() int { return 7 }

// TestProxyFailClosedWithoutDegrade: with Degrade off the old contract
// holds — a shed augmentation is a 503 + Retry-After, not silent
// un-augmented forwarding. The Retry-After is the augmenter's own price
// for the congestion when it has one, 1 otherwise.
func TestProxyFailClosedWithoutDegrade(t *testing.T) {
	sys, entered, release := degradedSystem(t, false)
	free := occupySlot(t, sys, entered, release)
	defer free()

	for _, tc := range []struct {
		name           string
		augmenter      Augmenter
		wantRetryAfter string
	}{
		{"saturated core", sys, strconv.Itoa(sys.RetryAfterHint())},
		{"augmenter with a hint", pricedShedAugmenter{shedAugmenter}, "7"},
		{"augmenter without one", shedAugmenter, "1"},
	} {
		upstream, bodies := captureUpstream(t)
		proxy, err := NewProxyWith(tc.augmenter, upstream.URL)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(proxy)
		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json",
			strings.NewReader(`{"model":"m","messages":[{"role":"user","content":"x"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		front.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503 when fail-closed", tc.name, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.wantRetryAfter {
			t.Errorf("%s: Retry-After = %q, want %q", tc.name, got, tc.wantRetryAfter)
		}
		if len(*bodies) != 0 {
			t.Errorf("%s: fail-closed request must not reach the upstream", tc.name)
		}
	}
}

// TestProxyPassesUpstream4xxVerbatim: an upstream that answers 400
// reaches the client as that 400 with its exact body — the proxy never
// rewrites upstream verdicts into its own 502.
func TestProxyPassesUpstream4xxVerbatim(t *testing.T) {
	const body = `{"error":{"message":"model not found","type":"invalid_request_error"}}`
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, body)
	}))
	defer upstream.Close()
	proxy, err := NewProxy(testSystem(t).System, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json",
		strings.NewReader(`{"model":"nope","messages":[{"role":"user","content":"x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want upstream's 400 verbatim", resp.StatusCode)
	}
	if string(got) != body {
		t.Fatalf("body = %q, want upstream's %q", got, body)
	}
}

// TestProxyUnreachableUpstreamIsJSON502: a transport-level failure (no
// upstream at all) is the one case the proxy answers itself, and it
// does so with the JSON error envelope API clients expect.
func TestProxyUnreachableUpstreamIsJSON502(t *testing.T) {
	proxy, err := NewProxy(testSystem(t).System, "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	resp, err := front.Client().Get(front.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	var envelope struct {
		Error struct {
			Type string `json:"type"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Type != "upstream_unreachable" {
		t.Fatalf("body = %q, want JSON envelope with type upstream_unreachable", body)
	}
}

// TestEnhanceContextDegrades: the library path mirrors the HTTP one —
// the downstream model is still called, with the raw prompt, and the
// result says so.
func TestEnhanceContextDegrades(t *testing.T) {
	sys, entered, release := degradedSystem(t, true)
	free := occupySlot(t, sys, entered, release)
	defer free()

	main := simllm.MustModel(simllm.GPT40613)
	const prompt = "Give me advice on keeping houseplants alive."
	out, err := sys.EnhanceContext(context.Background(), main, prompt, "e")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Complement != "" {
		t.Fatalf("out = %+v, want degraded with empty complement", out)
	}
	// The degraded response is exactly the raw-prompt response.
	raw, err := main.Chat([]simllm.Message{{Role: "user", Content: prompt}}, simllm.Options{Salt: "e"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Response != raw {
		t.Fatalf("degraded response differs from raw-prompt response")
	}
	if got := sys.core.Stats().Degraded; got != 1 {
		t.Fatalf("stats degraded = %d, want 1", got)
	}
}

// TestEnhanceMainModelErrorPropagates: degradation covers PAS-side
// failures only; the downstream model's own errors are the caller's to
// see, scripted here with a FaultyChatter.
func TestEnhanceMainModelErrorPropagates(t *testing.T) {
	sys := testSystem(t).System
	boom := errors.New("backend down")
	main := resilience.NewFaultyChatter(simllm.MustModel(simllm.GPT40613), resilience.Fault{Err: boom})
	if _, err := sys.Enhance(main, "x", "s"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the scripted backend error", err)
	}
	// Script exhausted: the next call passes through to the real model.
	out, err := sys.Enhance(main, "Explain how tides form.", "s")
	if err != nil || out.Response == "" {
		t.Fatalf("post-script call = (%+v, %v), want clean passthrough", out, err)
	}
	if main.Calls() != 2 {
		t.Fatalf("calls = %d, want 2", main.Calls())
	}
}

// TestEnhanceContextDeadlineCutsFaultDelay: AsChatterCtx must pick the
// FaultyChatter's native ChatContext, so a scripted 1s stall loses to a
// 30ms deadline instead of being slept in full.
func TestEnhanceContextDeadlineCutsFaultDelay(t *testing.T) {
	sys := testSystem(t).System
	main := resilience.NewFaultyChatter(simllm.MustModel(simllm.GPT40613), resilience.Fault{Delay: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sys.EnhanceContext(ctx, main, "x", "s")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline took %v to cut a scripted 1s stall", elapsed)
	}
}
