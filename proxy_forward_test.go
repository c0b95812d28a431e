package pas

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/httpmw"
	"repro/internal/obs"
	"repro/internal/serving"
	"repro/internal/wire"
)

// chainedFront serves aug's proxy for upstreamURL behind the middleware
// chain cmd/pasproxy wires, so the tests below see a response through
// every ResponseWriter wrapper a deployed proxy puts around it.
func chainedFront(t *testing.T, aug Augmenter, upstreamURL string) (*httptest.Server, *Proxy) {
	t.Helper()
	proxy, err := NewProxyWith(aug, upstreamURL)
	if err != nil {
		t.Fatal(err)
	}
	logger := log.New(io.Discard, "", 0)
	metrics := httpmw.NewMetrics()
	metrics.Register(obs.NewRegistry())
	front := httptest.NewServer(httpmw.Chain(proxy,
		httpmw.Recover(logger),
		httpmw.RequestID(),
		httpmw.Trace(obs.NewTracer(obs.TraceConfig{SampleEvery: 1}), "pasproxy"),
		httpmw.Logging(logger),
		httpmw.Tenant(),
		metrics.Middleware(),
	))
	t.Cleanup(front.Close)
	return front, proxy
}

const tidesChat = `{"model":"gpt-4-0613","seed":"s","messages":[{"role":"user","content":"Explain how tides form."}]}`

// TestProxyStreamsWithoutAFlushInterval: the proxy sets no
// FlushInterval and loses nothing by it. The upstream sends one event,
// flushes, and holds the second back until the client says it has the
// first: a proxy that sat on the first event would stall the exchange.
// An event stream is passed on at once whether or not its length is
// declared, and so is any body of undeclared length.
func TestProxyStreamsWithoutAFlushInterval(t *testing.T) {
	const first, second = "data: one\n\n", "data: two\n\n"
	for _, tc := range []struct {
		name, contentType string
		declareLength     bool
	}{
		{"event stream", "text/event-stream", false},
		{"event stream of declared length", "text/event-stream", true},
		{"chunked body that is not an event stream", "application/octet-stream", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gotFirst := make(chan struct{})
			upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", tc.contentType)
				if tc.declareLength {
					w.Header().Set("Content-Length", fmt.Sprint(len(first)+len(second)))
				}
				_, _ = io.WriteString(w, first)
				w.(http.Flusher).Flush()
				select {
				case <-gotFirst:
				case <-time.After(5 * time.Second):
					t.Error("the client never saw the first event while the upstream held the second")
				}
				_, _ = io.WriteString(w, second)
			}))
			defer upstream.Close()
			front, _ := chainedFront(t, markAugmenter, upstream.URL)

			resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(tidesChat))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got := make([]byte, len(first))
			if _, err := io.ReadFull(resp.Body, got); err != nil || string(got) != first {
				t.Fatalf("first event: %q, %v", got, err)
			}
			close(gotFirst)
			rest, err := io.ReadAll(resp.Body)
			if err != nil || string(rest) != second {
				t.Fatalf("second event: %q, %v", rest, err)
			}
		})
	}
}

// TestProxyDeliversLargeKnownLengthBody: the case FlushInterval did
// apply to. A megabyte of declared length crosses the pooled copy
// buffer thirty-odd times and arrives whole.
func TestProxyDeliversLargeKnownLengthBody(t *testing.T) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(18)).Read(payload)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		_, _ = w.Write(payload)
	}))
	defer upstream.Close()
	front, _ := chainedFront(t, markAugmenter, upstream.URL)

	for i := 0; i < 3; i++ { // the second and third copy through a reused buffer
		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(tidesChat))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.ContentLength != int64(len(payload)) || !bytes.Equal(got, payload) {
			t.Fatalf("response %d: %d bytes (Content-Length %d), %v; want the upstream's %d unchanged", i, len(got), resp.ContentLength, err, len(payload))
		}
	}
}

// failingWith is an augmenter that answers every prompt with err.
func failingWith(err error) Augmenter {
	return augmentFunc(func(_, _ string) (string, bool, error) { return "", false, err })
}

// roundTripFunc is an http.RoundTripper written as a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestProxyErrorEnvelopesAreJSON: the answers the proxy gives in its own
// name — 503 for anything its augmenter returns, 502 — are one envelope, declared as JSON,
// marked nosniff, and JSON whatever the error text holds. A fail-closed
// ring error quotes bytes of a replica's reply; %q would have spelled
// \x01 the Go way, which no JSON reader accepts.
func TestProxyErrorEnvelopesAreJSON(t *testing.T) {
	const text = "replica said \x01 \"no\" \u2028 and \xff <b>"
	upstream, _ := captureUpstream(t)
	for _, tc := range []struct {
		name, kind, retryAfter string
		status                 int
		err                    error
		fromTransport          bool
	}{
		{name: "augmenter error", status: 503, kind: "pas_proxy_error", retryAfter: "1", err: errors.New(text)},
		{name: "shed", status: 503, kind: "pas_proxy_error", retryAfter: "1", err: fmt.Errorf("%s: %w", text, serving.ErrQueueFull)},
		{name: "upstream unreachable", status: 502, kind: "upstream_unreachable", err: errors.New(text), fromTransport: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			front, proxy := chainedFront(t, failingWith(tc.err), upstream.URL)
			if tc.fromTransport {
				proxy.system = markAugmenter
				proxy.rp.Transport = roundTripFunc(func(*http.Request) (*http.Response, error) { return nil, tc.err })
			}
			resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", strings.NewReader(tidesChat))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if got := resp.Header.Get("Content-Type"); got != "application/json; charset=utf-8" {
				t.Errorf("Content-Type %q", got)
			}
			if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
				t.Errorf("X-Content-Type-Options %q, want nosniff: the message can quote a replica's bytes", got)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			var envelope struct {
				Error struct{ Message, Type string }
			}
			if err := json.Unmarshal(body, &envelope); err != nil {
				t.Fatalf("the body is not JSON: %v\n%s", err, body)
			}
			// A byte that is not UTF-8 is the one thing JSON cannot carry.
			if want := strings.ToValidUTF8(tc.err.Error(), "\uFFFD"); envelope.Error.Message != want || envelope.Error.Type != tc.kind {
				t.Errorf("envelope %+v, want message %q and type %q", envelope.Error, want, tc.kind)
			}
		})
	}
}

// TestProxyAnswers400OnlyForAnUnreadableBody: the one 400 the proxy
// originates is a chat body it could not read — the client's failure, so
// no Retry-After — in the same envelope as its other answers.
func TestProxyAnswers400OnlyForAnUnreadableBody(t *testing.T) {
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxyWith(markAugmenter, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	proxy.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/chat/completions", iotest.ErrReader(errors.New("connection reset"))))
	if rec.Code != http.StatusBadRequest || rec.Header().Get("Retry-After") != "" {
		t.Fatalf("status %d, Retry-After %q, want 400 and none: %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if want := `{"error":{"message":"reading request: connection reset","type":"pas_proxy_error"}}`; rec.Body.String() != want {
		t.Fatalf("body %s, want %s", rec.Body, want)
	}
	if len(*bodies) != 0 {
		t.Fatalf("the upstream saw %d requests, want none", len(*bodies))
	}
}

// pooledScratch takes n buffers out of the scratch pool, shows each to
// see and puts them all back.
func pooledScratch(n int, see func(*wire.Buffer)) {
	held := make([]*wire.Buffer, n)
	for i := range held {
		held[i] = wire.GetBuffer()
		see(held[i])
	}
	for _, b := range held {
		b.Release()
	}
}

// TestChatBodyLifetime: the scratch under a forwarded chat goes back to
// the pool at Close, once however often Close is called, and a Read
// that comes after gets an error instead of the next request's bytes.
func TestChatBodyLifetime(t *testing.T) {
	buf := wire.GetBuffer()
	buf.B = append(buf.B, "0123456789"...)
	body := &chatBody{buf: buf}
	p := make([]byte, 4)
	if n, err := body.Read(p); n != 4 || err != nil || string(p) != "0123" {
		t.Fatalf("Read = %d, %v, %q", n, err, p)
	}
	if err := body.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := body.Read(p); n != 0 || err != http.ErrBodyReadAfterClose {
		t.Fatalf("Read after Close = %d, %v, want http.ErrBodyReadAfterClose", n, err)
	}
	if err := body.Close(); err != nil { // the reverse proxy's, after the transport's
		t.Fatal(err)
	}
	if n, err := body.Read(p); n != 0 || err != http.ErrBodyReadAfterClose {
		t.Fatalf("Read after the second Close = %d, %v", n, err)
	}
	// Released twice, buf would sit in the pool twice and go out to two
	// requests at once.
	seen := map[*wire.Buffer]bool{}
	pooledScratch(64, func(b *wire.Buffer) {
		if seen[b] {
			t.Fatal("the pool handed out one buffer twice: a second Close released it again")
		}
		seen[b] = true
	})

	whole := &chatBody{buf: wire.GetBuffer()}
	whole.buf.B = append(whole.buf.B, "all of it"...)
	if got, err := io.ReadAll(whole); err != nil || string(got) != "all of it" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	_ = whole.Close()
}

// TestProxyErrorPathsReleaseScratch: a chat the augmenter fails on or
// sheds — a 503 with Retry-After either way, PAS's failure and never the
// client's 400 — or one whose client sent half of it and went quiet — the
// 400 for a body that could not be read, once the read deadline passes —
// never becomes a request body, so nobody will Close it; augmentRequest
// hands its scratch back itself. The scratch is known by a marker deep
// in the chat, past what the error envelope, which may take the same
// buffer next, writes over.
func TestProxyErrorPathsReleaseScratch(t *testing.T) {
	upstream, _ := captureUpstream(t)
	// direct serves the chat whole, straight into the handler.
	direct := func(_ *testing.T, proxy *Proxy, chat string) (int, string, string) {
		rec := httptest.NewRecorder()
		proxy.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/chat/completions", strings.NewReader(chat)))
		return rec.Code, rec.Header().Get("Retry-After"), rec.Body.String()
	}
	// stalled is a client of the proxy as pasproxy mounts it — the read
	// deadline has to reach the connection through the chain's recorder —
	// that declares the whole chat, sends half and waits for the answer.
	stalled := func(t *testing.T, proxy *Proxy, chat string) (int, string, string) {
		proxy.readTimeout = 30 * time.Millisecond
		front := httptest.NewServer(httpmw.Chain(proxy, httpmw.Logging(nil)))
		defer front.Close()
		conn, err := net.Dial("tcp", front.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/chat/completions HTTP/1.1\r\nHost: pas\r\nContent-Length: %d\r\n\r\n%s", len(chat), chat[:len(chat)/2])
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no answer to a stalled body: %v", err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After"), string(body)
	}
	for _, tc := range []struct {
		name       string
		aug        Augmenter
		send       func(*testing.T, *Proxy, string) (int, string, string)
		status     int
		retryAfter string
		body       string
	}{
		{"augmenter error", failingWith(errors.New("no")), direct, http.StatusServiceUnavailable, "1", `"message":"no"`},
		{"shed", failingWith(serving.ErrQueueFull), direct, http.StatusServiceUnavailable, "1", `"pas_proxy_error"`},
		{"stalled body", markAugmenter, stalled, http.StatusBadRequest, "", `"message":"reading request: `},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy, perr := NewProxyWith(tc.aug, upstream.URL)
			if perr != nil {
				t.Fatal(perr)
			}
			marker := []byte("marker-of-" + strings.ReplaceAll(tc.name, " ", "-"))
			// The marker sits in the half a stalled client does send.
			chat := fmt.Sprintf(`{"messages":[{"role":"user","content":"%s %s %s"}]}`, strings.Repeat("filler ", 100), marker, strings.Repeat("filler ", 700))
			// sync.Pool drops a Put now and then (always one in four under
			// the race detector), so one request proves nothing; a path that
			// never releases never puts the marker in the pool at all.
			for try := 0; try < 50; try++ {
				status, retryAfter, body := tc.send(t, proxy, chat)
				if status != tc.status || retryAfter != tc.retryAfter || !strings.Contains(body, tc.body) {
					t.Fatalf("status %d, Retry-After %q, want %d and %q: %s", status, retryAfter, tc.status, tc.retryAfter, body)
				}
				found := false
				pooledScratch(16, func(b *wire.Buffer) {
					found = found || bytes.Contains(b.B[:cap(b.B)], marker)
				})
				if found {
					return
				}
			}
			t.Fatal("the chat's scratch never came back out of the pool")
		})
	}
}

// TestProxyReadDeadlineCoversOnlyTheRead: the deadline on a chat body is
// for the read into memory and is gone once that is done. A chat that
// arrives in two halves 50ms apart is augmented and forwarded whole, and
// an upstream that then takes longer than the deadline to answer is
// waited for: a deadline left on the connection would end the request
// under it.
func TestProxyReadDeadlineCoversOnlyTheRead(t *testing.T) {
	const timeout = 250 * time.Millisecond
	var got []byte
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		time.Sleep(timeout + 150*time.Millisecond)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer upstream.Close()
	front, proxy := chainedFront(t, markAugmenter, upstream.URL)
	proxy.readTimeout = timeout

	conn, err := net.Dial("tcp", front.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := len(tidesChat) / 2
	fmt.Fprintf(conn, "POST /v1/chat/completions HTTP/1.1\r\nHost: pas\r\nContent-Length: %d\r\n\r\n%s", len(tidesChat), tidesChat[:half])
	time.Sleep(50 * time.Millisecond)
	fmt.Fprint(conn, tidesChat[half:])
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want, _, _ := rewriteBody(t, markAugmenter, []byte(tidesChat))
	if resp.StatusCode != http.StatusOK || string(body) != `{"ok":true}` || !bytes.Equal(got, want) {
		t.Fatalf("status %d, body %s, upstream got %s; want 200 and the augmented chat %s", resp.StatusCode, body, got, want)
	}
}

// TestProxyScratchDoesNotPinLargeChats: a chat may be megabytes and the
// pool is per-request scratch. The buffer a large chat grew is forwarded
// whole and then dropped, not pooled.
func TestProxyScratchDoesNotPinLargeChats(t *testing.T) {
	upstream, bodies := captureUpstream(t)
	front, _ := chainedFront(t, markAugmenter, upstream.URL)
	chat := []byte(fmt.Sprintf(`{"messages":[{"role":"user","content":"Summarise this log. %s"}]}`, strings.Repeat("line of the log; ", (1<<20)/17)))
	want, _, _ := rewriteBody(t, markAugmenter, chat)
	for _, body := range [][]byte{chat, []byte(tidesChat)} {
		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if len(*bodies) != 2 || !bytes.Equal((*bodies)[0], want) {
		t.Fatalf("the upstream received %d bodies and the large one is not the expected rewrite", len(*bodies))
	}
	pooledScratch(64, func(b *wire.Buffer) {
		if cap(b.B) > 64<<10 {
			t.Fatalf("the pool handed out a %d-byte buffer", cap(b.B))
		}
	})
}

// TestProxyScratchNeverCrossesRequests hammers the one place a pooled
// request body can go wrong. An upstream that answers without reading
// the request and hangs up makes the reverse proxy return, and Close the
// body, while the transport may still be reading it; eight clients keep
// that going while each also sends chats of its own to a route that
// records what it receives. Every recorded body must be the rewrite of
// the chat sent under its X-Request-Id: had a Read gone on over scratch
// the pool had already handed to another request, another chat's bytes
// would be in it (and the race detector would see the two meet).
func TestProxyScratchNeverCrossesRequests(t *testing.T) {
	var (
		mu       sync.Mutex
		received = map[string][]byte{}
		rude     int
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/rude/v1/chat/completions", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		rude++
		status := []int{http.StatusOK, http.StatusRequestEntityTooLarge}[rude%2]
		mu.Unlock()
		w.Header().Set("Connection", "close")
		w.WriteHeader(status)
	})
	mux.HandleFunc("/v1/chat/completions", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("upstream read: %v", err)
		}
		mu.Lock()
		received[r.Header.Get("X-Request-Id")] = body
		mu.Unlock()
		_, _ = w.Write([]byte(`{"ok":true}`))
	})
	upstream := httptest.NewServer(mux)
	defer upstream.Close()
	front, _ := chainedFront(t, markAugmenter, upstream.URL)

	const clients, rounds = 8, 30
	// Distinct in every byte that matters, and several transport reads long.
	chatOf := func(c, i int) []byte {
		word := fmt.Sprintf("c%d-r%d ", c, i)
		return []byte(fmt.Sprintf(`{"seed":%q,"messages":[{"role":"user","content":"%s"}],"n":%d}`, word, strings.Repeat(word, 3000+100*c+i), i))
	}
	post := func(path, id string, chat []byte) {
		req, err := http.NewRequest("POST", front.URL+path, bytes.NewReader(chat))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", path, id, err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// What the rude route answers, or whether its hanging up
				// reaches the client as a 502, is not what is being tested.
				post("/rude/v1/chat/completions", fmt.Sprintf("rude-%d-%d", c, i), chatOf(c, rounds+i))
				post("/v1/chat/completions", fmt.Sprintf("chat-%d-%d", c, i), chatOf(c, i))
			}
		}()
	}
	wg.Wait()

	if len(received) != clients*rounds {
		t.Fatalf("the recording route saw %d chats, want %d", len(received), clients*rounds)
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < rounds; i++ {
			want, _, _ := rewriteBody(t, markAugmenter, chatOf(c, i))
			if got := received[fmt.Sprintf("chat-%d-%d", c, i)]; !bytes.Equal(got, want) {
				t.Fatalf("chat-%d-%d reached the upstream as %d bytes starting %.80q, want the %d-byte rewrite of its own chat", c, i, len(got), got, len(want))
			}
		}
	}
}

// TestProxyBodyReadInFlightAtClose makes the case the sockets above
// seldom produce, every time: a transport that answers before it has
// read the request and goes on reading after RoundTrip returned, which
// is what httputil.ReverseProxy says a transport may do. The handler
// returns at once, the body is closed under the reader, and the scratch
// is on its way to the next of eight concurrent requests. Whatever the
// late reader still gets must be its own chat's bytes, and what stops it
// must be the end of that chat or http.ErrBodyReadAfterClose.
func TestProxyBodyReadInFlightAtClose(t *testing.T) {
	proxy, err := NewProxyWith(markAugmenter, "http://upstream.invalid")
	if err != nil {
		t.Fatal(err)
	}
	var (
		readers  sync.WaitGroup
		cutShort atomic.Int64
		wantOf   sync.Map // X-Request-Id -> the rewrite its body must be a prefix of
	)
	proxy.rp.Transport = roundTripFunc(func(req *http.Request) (*http.Response, error) {
		want, _ := wantOf.Load(req.Header.Get("X-Request-Id"))
		readers.Add(1)
		go func() {
			defer readers.Done()
			got, err := io.ReadAll(iotest.OneByteReader(req.Body))
			switch {
			case !bytes.HasPrefix(want.([]byte), got):
				t.Errorf("%s: after %d bytes of its own chat the late reader got another's", req.Header.Get("X-Request-Id"), len(got))
			case err == http.ErrBodyReadAfterClose:
				cutShort.Add(1)
			case err != nil || len(got) != len(want.([]byte)):
				t.Errorf("%s: the late reader stopped after %d of %d bytes with %v", req.Header.Get("X-Request-Id"), len(got), len(want.([]byte)), err)
			}
		}()
		return &http.Response{
			StatusCode: http.StatusRequestEntityTooLarge, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{}, Body: http.NoBody, Request: req,
		}, nil
	})

	const clients, rounds = 8, 50
	var chats [clients][rounds][]byte
	for c := range chats {
		for i := range chats[c] {
			word := fmt.Sprintf("c%d-r%d ", c, i)
			chats[c][i] = []byte(fmt.Sprintf(`{"messages":[{"role":"user","content":"%s"}]}`, strings.Repeat(word, 2000)))
			want, _, _ := rewriteBody(t, markAugmenter, chats[c][i])
			wantOf.Store(word, want)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, chat := range chats[c] {
				req := httptest.NewRequest("POST", "/v1/chat/completions", bytes.NewReader(chat))
				req.Header.Set("X-Request-Id", fmt.Sprintf("c%d-r%d ", c, i))
				rec := httptest.NewRecorder()
				proxy.ServeHTTP(rec, req)
				if rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("status %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	readers.Wait()
	if cutShort.Load() == 0 {
		t.Fatal("no body was closed under its reader: the test did not make the case it is for")
	}
	t.Logf("%d of %d bodies were closed under their reader", cutShort.Load(), clients*rounds)
}
