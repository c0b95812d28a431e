package pas

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/serving"
	"repro/internal/wire"
)

// referenceAugment is handleAugment as it was while encoding/json read
// and wrote both bodies, kept as the oracle the append/scan codec is
// held to: same status, same headers, same bytes, for any body.
func referenceAugment(s *System, w http.ResponseWriter, r *http.Request) {
	var req AugmentRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPromptBytes))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.Prompt) == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "prompt is required"})
		return
	}
	c, level, err := s.complementLevel(r.Context(), req.Prompt, req.Salt)
	if err != nil {
		s.writeOverloaded(w, err)
		return
	}
	resp := AugmentResponse{
		Prompt: req.Prompt, Complement: c, Augmented: cat(req.Prompt, c), Model: s.BaseModel(),
		Degraded: level != serving.LevelFull, DegradedLevel: level.Header(),
	}
	if resp.Degraded {
		w.Header().Set("X-PAS-Degraded", resp.DegradedLevel)
	}
	writeJSON(w, http.StatusOK, resp)
}

// augmentBodies are request bodies on both sides of the line between
// what the scanner claims and what it leaves to encoding/json — every
// 400 the handler can word is here.
var augmentBodies = []string{
	`{"prompt":"Explain how tides form","salt":"s1"}`,
	`{"prompt":"Explain how tides form"}`,
	" {\n  \"salt\" : \"s\",\n  \"prompt\" : \"Compare <b>TCP</b> & UDP\"\n}\n",
	`{"prompt":"line one\nline two \"quoted\" back\\slash \/ tab\t"}`,
	"{\"prompt\":\"caf\\u00e9 \U000000E9 \\ud83d\\ude00 lone \\ud800 sep \U00002028\"}",
	"{\"prompt\":\"bad \xff\xc3 bytes\"}",
	`{"prompt":"a","prompt":"Why is the sky blue?"}`,
	`{"prompt":"Why is the sky blue?","prompt":null}`,
	`{"Prompt":"folded key"}`,
	"{\"\U0000017Falt\":\"long s\",\"prompt\":\"folded salt\"}",
	"{\"p\\u0072ompt\":\"escaped key\"}",
	`{"prompt":"a","unknown":{"prompt":[1,{"x":null}]},"n":-1.5e3}`,
	`{"prompt":"first"} trailing garbage`,
	`{"prompt":"first"}{"prompt":"second"}`,
	`{}`,
	`{"prompt":""}`,
	`{"prompt":"   "}`,
	`{"salt":"only"}`,
	`{"prompt":null}`,
	`{"prompt":7}`,
	`{"prompt":["a"]}`,
	`{"prompt":"a","salt":{}}`,
	`null`,
	`[]`,
	`[{"prompt":"a"}]`,
	`7`,
	`"prompt"`,
	``,
	`   `,
	`{`,
	`{"prompt":"unterminated`,
	`{"prompt":"a",}`,
	`{"prompt":"bad \x escape"}`,
	"{\"prompt\":\"raw control \x01\"}",
	`{prompt:"a"}`,
	`not json`,
	`{"prompt":"` + strings.Repeat("x", maxPromptBytes) + `"}`,
	`{"prompt":"fits"}` + strings.Repeat(" ", maxPromptBytes),
}

// checkAgainstReference sends body to sys's handler and to the
// reference on ref — the same System unless serving one request changes
// what the next one gets — and wants the same answer, byte for byte.
func checkAgainstReference(t *testing.T, name string, sys, ref *System, body string) (got *httptest.ResponseRecorder) {
	t.Helper()
	want := httptest.NewRecorder()
	referenceAugment(ref, want, httptest.NewRequest("POST", "/v1/augment", strings.NewReader(body)))
	got = httptest.NewRecorder()
	sys.Handler().ServeHTTP(got, httptest.NewRequest("POST", "/v1/augment", strings.NewReader(body)))
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s %.80q:\n got %d %.300s\nwant %d %.300s", name, body, got.Code, got.Body, want.Code, want.Body)
	}
	for _, h := range []string{"Content-Type", "X-PAS-Degraded", "Retry-After"} {
		if g, w := got.Header().Values(h), want.Header().Values(h); strings.Join(g, "|") != strings.Join(w, "|") {
			t.Errorf("%s %.80q: header %s = %q, want %q", name, body, h, g, w)
		}
	}
	return got
}

// TestAugmentHandlerMatchesEncodingJSON: the handler answers every body
// exactly as it did when encoding/json decoded the request and encoded
// the reply — with and without a serving core, shed with a 503, and
// shed fail-open.
func TestAugmentHandlerMatchesEncodingJSON(t *testing.T) {
	full, bare := servingSystem(t, ServingConfig{}), NewSystem(testSystem(t).System.model)
	for _, body := range augmentBodies {
		checkAgainstReference(t, "full", full, full, body)
		checkAgainstReference(t, "bare", bare, bare, body)
	}

	// What a saturated core answers is read off twin systems in the same
	// state: fail-closed for the 503, fail-open for the flagged 200.
	const body = `{"prompt":"Compare <b>TCP</b> & UDP.","salt":"s"}`
	twins := func(degrade bool) (sys, ref *System, free func()) {
		sys, entered, release := degradedSystem(t, degrade)
		ref, refEntered, refRelease := degradedSystem(t, degrade)
		freeSys, freeRef := occupySlot(t, sys, entered, release), occupySlot(t, ref, refEntered, refRelease)
		return sys, ref, func() { freeSys(); freeRef() }
	}
	sys, ref, free := twins(false)
	if got := checkAgainstReference(t, "shed", sys, ref, body); got.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated, fail-closed: status %d, want 503", got.Code)
	}
	free()

	sys, ref, free = twins(true)
	if got := checkAgainstReference(t, "fail-open", sys, ref, body).Header().Get("X-PAS-Degraded"); got != "1" {
		t.Errorf("saturated, fail-open: X-PAS-Degraded %q, want 1", got)
	}
	if st := sys.core.Stats(); st.Degraded != 1 {
		t.Errorf("degraded = %d, want the one fail-open answer", st.Degraded)
	}
	free()
}

// nopResponse is the cheapest http.ResponseWriter there is.
type nopResponse struct{ h http.Header }

func (w *nopResponse) Header() http.Header         { return w.h }
func (w *nopResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponse) WriteHeader(int)             {}

// SetReadDeadline: like a daemon's connection it can be given one, so the
// proxy's figures below are a served request's, not those of the error a
// writer without deadlines returns.
func (w *nopResponse) SetReadDeadline(time.Time) error { return nil }

// rewindBody is a request body that can be read again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestAugmentHandlerAllocations holds what System.Handler() costs on a
// warm cache: it was 14 allocations per request while encoding/json
// decoded the two-field body and encoded the reply by reflection. What
// is left is the mux, MaxBytesReader, the two request strings, the
// augmented string and the header values.
func TestAugmentHandlerAllocations(t *testing.T) {
	sys := servingSystem(t, ServingConfig{})
	h := sys.Handler()
	payload := []byte(`{"prompt":"Explain how tides form, in two short paragraphs.","salt":"s1"}`)
	body := &rewindBody{}
	req := httptest.NewRequest("POST", "/v1/augment", nil)
	req.Body = body
	w := &nopResponse{h: http.Header{}}
	serve := func() {
		body.Reset(payload)
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve() // the miss; every later request is a hit
	n := testing.AllocsPerRun(200, serve)
	t.Logf("System.Handler() allocations per cache hit: %v", n)
	if n > 8 {
		t.Fatalf("System.Handler() allocates %v times per cache hit, want <= 8", n)
	}
}

// memUpstream answers every round trip from memory after consuming the
// request, as a socket would.
var memUpstream = roundTripFunc(func(req *http.Request) (*http.Response, error) {
	_, _ = io.Copy(io.Discard, req.Body)
	_ = req.Body.Close()
	return &http.Response{
		StatusCode: http.StatusOK, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}},
		Body:   io.NopCloser(strings.NewReader(`{"ok":true}`)), ContentLength: 11, Request: req,
	}, nil
})

// TestProxyForwardAllocations holds what Proxy.ServeHTTP costs for the
// 14-message, 7 KiB chat of BenchmarkProxyRewrite/long, over the same
// in-memory transport. It was 44 allocations and 44.7 KiB per request
// while the reverse proxy made its own 32 KiB copy buffer for every
// response and the chat was read into, and spliced through, buffers of
// its own; what is left is the reverse proxy's clone of the request and
// its headers.
func TestProxyForwardAllocations(t *testing.T) {
	filler := strings.Repeat("On tides, in plain words, as a numbered list. ", 11)
	type message struct {
		Role    string `json:"role"`
		Content string `json:"content"`
	}
	msgs := []message{{"system", "You are a careful assistant. " + filler[:200]}}
	for i := 0; i < 6; i++ {
		msgs = append(msgs, message{"user", filler[:380]}, message{"assistant", filler + filler[:100]})
	}
	msgs = append(msgs, message{"user", "Explain how tides form, for a reader who has never seen the sea."})
	chat, err := json.Marshal(map[string]any{"model": "gpt-4-0613", "temperature": 0.7, "seed": "pasperf", "messages": msgs})
	if err != nil {
		t.Fatal(err)
	}

	proxy, err := NewProxyWith(markAugmenter, "http://upstream.invalid")
	if err != nil {
		t.Fatal(err)
	}
	proxy.rp.Transport = memUpstream
	w := &nopResponse{h: http.Header{}}
	serve := func() { // a new request each time, as the benchmark makes one: the figures are its
		req, err := http.NewRequest(http.MethodPost, "http://proxy/v1/chat/completions", bytes.NewReader(chat))
		if err != nil {
			t.Fatal(err)
		}
		clear(w.h)
		proxy.ServeHTTP(w, req)
	}
	serve() // fills the pools
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := testing.AllocsPerRun(runs, serve)
	runtime.ReadMemStats(&after)
	size := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one run of its own
	t.Logf("Proxy.ServeHTTP per forwarded %d-byte chat: %v allocations, %d bytes", len(chat), n, size)
	if n > 40 {
		t.Errorf("Proxy.ServeHTTP allocates %v times per forwarded chat, want <= 40", n)
	}
	if size > 8<<10 && !raceEnabled {
		t.Errorf("Proxy.ServeHTTP allocates %d bytes per forwarded chat, want <= 8 KiB", size)
	}
}

// TestPooledBuffersDoNotPinLargeBodies: a request body goes through
// pooled scratch, and maxPromptBytes is a megabyte. The buffer such a
// body grew is dropped, not pooled, and nothing the core or the cache
// keeps is a view of it — the next request reuses the scratch.
func TestPooledBuffersDoNotPinLargeBodies(t *testing.T) {
	sys := servingSystem(t, ServingConfig{})
	h := sys.Handler()
	post := func(prompt string) AugmentResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		body := wire.AppendAugmentRequest(nil, AugmentRequest{Prompt: prompt, Salt: "s"})
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/augment", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %.200s", rec.Code, rec.Body)
		}
		var out AugmentResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	big := "Summarise this log. " + strings.Repeat("line of the log; ", (maxPromptBytes-256)/17)
	small := "Why is the sky blue?"
	wantBig := sys.Complement(big, "s")

	first := post(big)
	if first.Prompt != big || first.Complement != wantBig {
		t.Fatal("the large prompt was not served as Complement computes it")
	}
	if got := post(small); got.Prompt != small || got.Complement != sys.Complement(small, "s") {
		t.Fatalf("the small prompt after it came back as %+v", got)
	}
	hits := sys.core.Stats().Cache.Hits
	again := post(big)
	if again != first {
		t.Fatal("the cached reply to the large prompt changed after the scratch was reused")
	}
	if sys.core.Stats().Cache.Hits != hits+1 {
		t.Fatal("the repeat of the large prompt was not a cache hit")
	}
	for i := 0; i < 64; i++ {
		if b := wire.GetBuffer(); cap(b.B) > 64<<10 {
			t.Fatalf("the pool handed out a %d-byte buffer", cap(b.B))
		}
	}
}
