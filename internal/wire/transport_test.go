package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/textproto"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reply is a scripted response: head, then body unless the request was
// a HEAD, then late after a pause; close ends the connection after it,
// and keep keeps it even when the request asked to close.
type reply struct {
	head, body, late string
	close, keep      bool
}

// replies are the responses of the differential matrix, by the name a
// request asks for in X-Reply.
var replies = map[string]reply{
	"length":   {head: "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\nX-Case: length\r\n\r\n", body: "hello"},
	"chunked":  {head: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", body: "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"},
	"trailers": {head: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n", body: "5\r\nhello\r\n0\r\nX-Sum: 42\r\n\r\n"},
	"close":    {head: "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n", body: "until the connection ends", close: true},
	"204":      {head: "HTTP/1.1 204 No Content\r\nX-Case: 204\r\n\r\n"},
	"304":      {head: "HTTP/1.1 304 Not Modified\r\nEtag: \"v1\"\r\n\r\n"},
	"early":    {head: "HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n", body: "ok"},
}

// rawUpstream is a TCP server that records the exact bytes each request
// took on the wire and answers it with the reply its X-Reply header
// names. It sends 100 Continue to a request that expects it.
type rawUpstream struct {
	ln      net.Listener
	replies map[string]reply

	mu       sync.Mutex
	records  []string
	accepted int
}

func newRawUpstream(t *testing.T, replies map[string]reply) *rawUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := &rawUpstream{ln: ln, replies: replies}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			u.mu.Lock()
			u.accepted++
			u.mu.Unlock()
			wg.Add(1)
			go func() { defer wg.Done(); u.serve(c) }()
		}
	}()
	return u
}

func (u *rawUpstream) url() string { return "http://" + u.ln.Addr().String() }

func (u *rawUpstream) conns() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.accepted
}

// recorder keeps every byte read through it.
type recorder struct {
	r   io.Reader
	got []byte
}

func (r *recorder) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.got = append(r.got, p[:n]...)
	return n, err
}

func (u *rawUpstream) serve(c net.Conn) {
	defer c.Close()
	rec := &recorder{r: c}
	br := bufio.NewReader(rec)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		if hasToken(req.Header.Get("Expect"), "100-continue") {
			_, _ = io.WriteString(c, "HTTP/1.1 100 Continue\r\n\r\n")
		}
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return
		}
		// What the request took: everything read, less what the reader
		// holds beyond it.
		n := len(rec.got) - br.Buffered()
		u.mu.Lock()
		u.records = append(u.records, string(rec.got[:n]))
		u.mu.Unlock()
		rec.got = append(rec.got[:0], rec.got[n:]...)

		r := u.replies[req.Header.Get("X-Reply")]
		out := r.head
		if req.Method != http.MethodHead {
			out += r.body
		}
		if _, err := io.WriteString(c, out); err != nil {
			return
		}
		if r.late != "" {
			time.Sleep(50 * time.Millisecond)
			_, _ = io.WriteString(c, r.late)
		}
		if r.close || req.Close && !r.keep {
			return
		}
	}
}

// pattern is n bytes of a repeating alphabet.
func pattern(n int) []byte {
	return bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), n/36+1)[:n]
}

// requestCase builds one request of the matrix afresh (a body is read
// once) against base.
type requestCase struct {
	name string
	make func(base string) *http.Request
}

func requestCases() []requestCase {
	cases := []requestCase{
		{"GET", func(base string) *http.Request { r, _ := http.NewRequest("GET", base+"/v1/models?x=1", nil); return r }},
		{"HEAD", func(base string) *http.Request { r, _ := http.NewRequest("HEAD", base+"/", nil); return r }},
		{"GET/close", func(base string) *http.Request {
			r, _ := http.NewRequest("GET", base+"/", nil)
			r.Close = true
			return r
		}},
		{"POST/expect", func(base string) *http.Request {
			r, _ := http.NewRequest("POST", base+"/upload", bytes.NewReader(pattern(4<<10)))
			r.Header.Set("Expect", "100-continue")
			return r
		}},
		{"POST/chunked", func(base string) *http.Request {
			// A pipe written in odd pieces: no declared length.
			pr, pw := io.Pipe()
			go func() {
				for rest := pattern(70 << 10); len(rest) > 0; {
					n := min(len(rest), 1000+len(rest)%7)
					if _, err := pw.Write(rest[:n]); err != nil {
						return
					}
					rest = rest[n:]
				}
				pw.Close()
			}()
			r, _ := http.NewRequest("POST", base+"/stream", pr)
			return r
		}},
	}
	for _, n := range []int{0, 1, 4<<10 - 1, 4 << 10, 4<<10 + 1, 32<<10 - 1, 32 << 10, 32<<10 + 1, 1 << 20} {
		cases = append(cases, requestCase{fmt.Sprintf("POST/%d", n), func(base string) *http.Request {
			r, _ := http.NewRequest("POST", base+"/v1/chat/completions", bytes.NewReader(pattern(n)))
			r.Header.Set("Content-Type", "application/json")
			return r
		}})
	}
	return cases
}

// exchange sends req through rt and renders what the caller sees:
// status, each 1xx, the header without Date, the body, the trailer.
func exchange(rt http.RoundTripper, req *http.Request) string {
	var hints []string
	trace := &httptrace.ClientTrace{Got1xxResponse: func(code int, h textproto.MIMEHeader) error {
		hints = append(hints, fmt.Sprint(code, h))
		return nil
	}}
	resp, err := rt.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
	if err != nil {
		return "error " + err.Error()
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	h := resp.Header.Clone()
	h.Del("Date")
	return fmt.Sprintf("%s %d 1xx %v\nheader %v\nbody %q %v\ntrailer %v\nlength %d close %v",
		resp.Proto, resp.StatusCode, hints, h, b, err, resp.Trailer, resp.ContentLength, resp.Close)
}

// matrix runs every request against every reply through rt, in one
// sequence so that connections are reused, and returns what the caller
// saw and what the upstream read.
func matrix(t *testing.T, rt http.RoundTripper) (seen, read []string, conns int) {
	up := newRawUpstream(t, replies)
	names := make([]string, 0, len(replies))
	for name := range replies {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, rc := range requestCases() {
		for _, name := range names {
			req := rc.make(up.url())
			req.Header.Set("X-Reply", name)
			seen = append(seen, rc.name+" → "+name+"\n"+exchange(rt, req))
		}
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	for _, r := range up.records {
		read = append(read, strings.Replace(r, "Host: "+up.ln.Addr().String(), "Host: upstream", 1))
	}
	return seen, read, up.accepted
}

// referenceTransport is http.Transport as a daemon configures it, with
// no proxy from the environment.
func referenceTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 90 * time.Second, ExpectContinueTimeout: time.Second}
}

// TestTransportMatchesHTTPTransport: one matrix of requests (GET, HEAD,
// POST bodies around every buffer edge, chunked, Expect: 100-continue,
// Connection: close) against one of responses (Content-Length, chunked,
// trailers, close-delimited, 204, 304, 103 then 200, HEAD with a length)
// through http.Transport and through Transport. The caller sees the same
// status, 1xx, header, body and trailer; the upstream reads the same
// bytes but one header line, the Accept-Encoding: gzip http.Transport
// adds and Transport does not. A request whose Connection header alone
// asks to close, answered on a connection kept alive, is pooled or not
// as http.Transport pools it.
func TestTransportMatchesHTTPTransport(t *testing.T) {
	ref := referenceTransport()
	defer ref.CloseIdleConnections()
	ours := NewTransport(referenceTransport())
	defer ours.CloseIdleConnections()
	wantSeen, wantRead, refConns := matrix(t, ref)
	seen, read, conns := matrix(t, ours)
	t.Logf("%d exchanges: http.Transport opened %d connections, Transport %d", len(seen), refConns, conns)
	if len(seen) != len(wantSeen) || len(read) != len(wantRead) {
		t.Fatalf("%d exchanges and %d requests read, want %d and %d", len(seen), len(read), len(wantSeen), len(wantRead))
	}
	for i := range seen {
		if seen[i] != wantSeen[i] {
			t.Errorf("the caller saw\n%s\nwant\n%s", seen[i], wantSeen[i])
		}
	}
	const gzip = "Accept-Encoding: gzip\r\n"
	for i := range read {
		head, _, _ := strings.Cut(read[i], "\r\n\r\n")
		want := wantRead[i]
		// HEAD asks for no encoding; Expect: 100-continue goes to the
		// wrapped http.Transport.
		if !strings.HasPrefix(head, "HEAD ") && !strings.Contains(head, "Expect: 100-continue") {
			// The one intended difference, pinned both ways.
			if !strings.Contains(want, gzip) || strings.Contains(read[i], gzip) {
				t.Errorf("request %d: Accept-Encoding: gzip in http.Transport's %v, in Transport's %v", i, strings.Contains(want, gzip), strings.Contains(read[i], gzip))
			}
			want = strings.Replace(want, gzip, "", 1)
		}
		if read[i] != want {
			t.Errorf("request %d: the upstream read %d bytes, want %d; head\n%s\nwant\n%.300s", i, len(read[i]), len(want), head, want)
		}
	}
	if got, want := closeHeaderConns(t, ours), closeHeaderConns(t, ref); got != want {
		t.Errorf("a header-only Connection: close, then a GET: %d connections, http.Transport %d", got, want)
	}
}

// closeHeaderConns sends through rt a GET whose Connection header alone
// asks to close (req.Close is false), then a plain GET, to an upstream
// that keeps its connections, and returns how many it accepted: 1 when
// rt pooled the first connection.
func closeHeaderConns(t *testing.T, rt http.RoundTripper) int {
	up := newRawUpstream(t, map[string]reply{"keep": {head: "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", body: "hello", keep: true}})
	for _, conn := range []string{"close", ""} {
		req, _ := http.NewRequest("GET", up.url()+"/", nil)
		req.Header.Set("X-Reply", "keep")
		if conn != "" {
			req.Header.Set("Connection", conn)
		}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return up.conns()
}

// TestTransportServesCleartextOnly: https, a proxied request, an upgrade,
// any Expect and a header http.Transport refuses go to the wrapped
// transport; a plain request does not.
func TestTransportServesCleartextOnly(t *testing.T) {
	proxied := referenceTransport()
	proxied.Proxy = func(r *http.Request) (*url.URL, error) {
		if r.URL.Host == "via.proxy" {
			return &url.URL{Scheme: "http", Host: "proxy:3128"}, nil
		}
		return nil, nil
	}
	tr := NewTransport(proxied)
	req := func(method, u string, header ...string) *http.Request {
		r, _ := http.NewRequest(method, u, nil)
		for i := 0; i+1 < len(header); i += 2 {
			r.Header[header[i]] = []string{header[i+1]}
		}
		return r
	}
	for _, tc := range []struct {
		req    *http.Request
		served bool
	}{
		{req("POST", "http://a:1/v1/chat/completions"), true},
		{req("GET", "http://a/"), true},
		{req("GET", "https://a:1/"), false},
		{req("GET", "http://via.proxy/"), false},
		{req("GET", "http://a:1/", "Upgrade", "websocket", "Connection", "Upgrade"), false},
		{req("POST", "http://a:1/", "Expect", "100-Continue"), false},
		{req("POST", "http://a:1/", "Expect", "foo"), false},
		{req("GET", "http://a:1/", "X-Bad", "a\r\nb"), false},
		{req("GET", "http://a:1/", "Bad Name", "v"), false},
		{req("CONNECT", "http://a:1/"), false},
	} {
		if got := tr.serves(tc.req); got != tc.served {
			t.Errorf("%s %s %v: served %v, want %v", tc.req.Method, tc.req.URL, tc.req.Header, got, tc.served)
		}
	}
	if NewTransport(&http.Transport{DisableKeepAlives: true}).serves(req("GET", "http://a:1/")) {
		t.Error("DisableKeepAlives: served, want the wrapped transport")
	}
}

// idleConns is the number of connections t has pooled.
func idleConns(t *Transport) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, stack := range t.idle {
		n += len(stack)
	}
	return n
}

// TestTransportClientLeavesMidReply: the caller's context ends while the
// body is read. The blocked Read returns the context's error, and the
// connection is closed, not pooled: the upstream sees it end. Fails if
// the context's end does not reach the connection (no AfterFunc): the
// Read never returns.
func TestTransportClientLeavesMidReply(t *testing.T) {
	ended := make(chan struct{})
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "part")
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done(): // the connection ended
			close(ended)
		case <-time.After(10 * time.Second):
		}
	}))
	defer up.Close()
	tr := NewTransport(referenceTransport())
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", up.URL, nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 4)
	if _, err := io.ReadFull(resp.Body, part); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() { _, err := resp.Body.Read(make([]byte, 64)); readErr <- err }()
	cancel()
	select {
	case err := <-readErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Read after the caller left: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read still blocked 5 s after the caller left")
	}
	resp.Body.Close()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the upstream never saw the connection end")
	}
	if n := idleConns(tr); n != 0 {
		t.Errorf("%d connections pooled, want 0", n)
	}
}

// TestTransportNeverPoolsAnExpiredConnection: a context that ends after
// the response arrived, before its body is read, has set a past deadline
// on the connection; the body still reads to its end, and the connection
// is closed, not pooled. Fails if release ignores that the cancellation
// hook fired.
func TestTransportNeverPoolsAnExpiredConnection(t *testing.T) {
	up := newRawUpstream(t, replies)
	tr := NewTransport(referenceTransport())
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", up.url(), nil)
	req.Header.Set("X-Reply", "length")
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n := idleConns(tr); n != 0 {
		t.Fatalf("%d connections pooled after the context ended, want 0", n)
	}
	// The next request dials afresh and succeeds.
	req, _ = http.NewRequest("GET", up.url(), nil)
	req.Header.Set("X-Reply", "length")
	if got := exchange(tr, req); !strings.Contains(got, `body "hello"`) {
		t.Fatalf("next request: %s", got)
	}
	if n := up.conns(); n != 2 {
		t.Fatalf("%d connections, want 2", n)
	}
}

// TestTransportUnsolicitedBytesEndTheConnection: a server that sends
// bytes after a complete response — with it, or later while the
// connection is idle — has its connection closed, and the next request
// dials. Fails if release pools a connection with bytes buffered (with
// it), or if the peek passes one that has bytes to read (later).
func TestTransportUnsolicitedBytesEndTheConnection(t *testing.T) {
	junk := map[string]reply{
		"with":  {head: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n", body: "okJUNK"},
		"later": {head: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n", body: "ok", late: "JUNK"},
		"clean": {head: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n", body: "ok"},
	}
	for _, name := range []string{"with", "later"} {
		t.Run(name, func(t *testing.T) {
			up := newRawUpstream(t, junk)
			tr := NewTransport(referenceTransport())
			defer tr.CloseIdleConnections()
			for _, ask := range []string{name, "clean"} {
				req, _ := http.NewRequest("GET", up.url(), nil)
				req.Header.Set("X-Reply", ask)
				if got := exchange(tr, req); !strings.HasPrefix(got, "HTTP/1.1 200") || !strings.Contains(got, `body "ok"`) {
					t.Fatalf("%s: %s", ask, got)
				}
				time.Sleep(100 * time.Millisecond) // the late bytes arrive
			}
			if n := up.conns(); n != 2 {
				t.Fatalf("%d connections, want 2: the one that sent unsolicited bytes was used again", n)
			}
		})
	}
}

// TestTransportBoundsResponseHeader: a response header over
// MaxResponseHeaderBytes is the error http.Transport gives, not a header
// held in memory. Fails if the bound is not applied: the 2 MiB header
// parses.
func TestTransportBoundsResponseHeader(t *testing.T) {
	huge := map[string]reply{"huge": {head: "HTTP/1.1 200 OK\r\nX-Big: " + strings.Repeat("a", 2<<20) + "\r\nContent-Length: 0\r\n\r\n"}}
	up := newRawUpstream(t, huge)
	bounded := func() *http.Transport { tr := referenceTransport(); tr.MaxResponseHeaderBytes = 64 << 10; return tr }
	var errs []string
	for _, rt := range []http.RoundTripper{bounded(), NewTransport(bounded())} {
		req, _ := http.NewRequest("GET", up.url(), nil)
		req.Header.Set("X-Reply", "huge")
		errs = append(errs, exchange(rt, req))
	}
	const want = "net/http: server response headers exceeded 65536 bytes; aborted"
	if !strings.HasSuffix(errs[0], want) || !strings.HasSuffix(errs[1], want) {
		t.Fatalf("Transport: %.200s\nhttp.Transport: %.200s", errs[1], errs[0])
	}
}

// TestTransportAnswersBeforeTheBodyIsRead: an upstream that answers 413
// to a 1 MiB body without reading it, and closes, has its answer read
// though writing the body failed: the client's socket buffer is held to
// 64 KiB, so the body cannot all be written before the upstream closes.
// Fails if a failed write is returned without reading the response.
func TestTransportAnswersBeforeTheBodyIsRead(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "too large", http.StatusRequestEntityTooLarge)
	}))
	defer up.Close()
	base := referenceTransport()
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			err = c.(*net.TCPConn).SetWriteBuffer(64 << 10)
		}
		return c, err
	}
	tr := NewTransport(base)
	defer tr.CloseIdleConnections()
	req, _ := http.NewRequest("POST", up.URL, bytes.NewReader(pattern(1<<20)))
	if got := exchange(tr, req); !strings.HasPrefix(got, "HTTP/1.1 413") {
		t.Fatalf("%.300s", got)
	}
}

// pooledReply is the answer to every request after the first on an
// upstream connection of FuzzTransportMatchesHTTPTransport: a second
// exchange that reads it went down the connection the first left
// pooled.
const pooledReply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"

// scriptedUpstream answers the first request on each connection with
// reply, and closes the connection after it when close says so; it
// answers every later request on the connection with pooledReply.
type scriptedUpstream struct {
	ln    net.Listener
	conns atomic.Int32
}

func newScriptedUpstream(t *testing.T, reply []byte, close bool) *scriptedUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := &scriptedUpstream{ln: ln}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			u.conns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for out := reply; ; out = []byte(pooledReply) {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					if _, err := io.Copy(io.Discard, req.Body); err != nil {
						return
					}
					if _, err := c.Write(out); err != nil || close {
						return
					}
				}
			}()
		}
	}()
	return u
}

// fuzzSeen is what the caller of one exchange saw: rendered, the
// status, each 1xx, the header without Date, the body read before any
// error and the trailer; and apart, the number of 1xx, whether the
// exchange failed, and whether the transport decompressed the body.
type fuzzSeen struct {
	rendered     string
	n1xx         int
	failed       bool
	uncompressed bool
}

// fuzzExchange sends one request through rt. An error is rendered as
// the word: the two transports word the same failure differently
// (http.Transport prefixes "net/http: HTTP/1.x transport connection
// broken"), and a reply cut short on a connection left open ends in the
// request's timeout.
func fuzzExchange(rt http.RoundTripper, method, url string) fuzzSeen {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var hints []string
	trace := &httptrace.ClientTrace{Got1xxResponse: func(code int, h textproto.MIMEHeader) error {
		hints = append(hints, fmt.Sprint(code, h))
		return nil
	}}
	var body io.Reader
	if method == http.MethodPost {
		body = strings.NewReader(`{"prompt":"p"}`)
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), method, url, body)
	if err != nil {
		panic(err)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return fuzzSeen{rendered: fmt.Sprintf("1xx %v error", hints), n1xx: len(hints), failed: true}
	}
	var b []byte
	if resp.StatusCode != http.StatusSwitchingProtocols {
		b, err = io.ReadAll(resp.Body)
	} // else the body is the connection, which the upstream keeps open
	resp.Body.Close()
	h := resp.Header.Clone()
	h.Del("Date")
	return fuzzSeen{
		rendered: fmt.Sprintf("%s %d 1xx %v\nheader %v\nbody %q error %v\ntrailer %v\nlength %d close %v",
			resp.Proto, resp.StatusCode, hints, h, b, err != nil, resp.Trailer, resp.ContentLength, resp.Close),
		n1xx:         len(hints),
		uncompressed: resp.Uncompressed,
	}
}

// fuzzSide is one transport's view of a fuzzed reply: the exchange the
// reply answered, whether the connection was pooled after it (a second
// exchange reads pooledReply down it), and that second exchange.
type fuzzSide struct {
	first  fuzzSeen
	pooled bool
	second fuzzSeen
}

func fuzzRun(t *testing.T, rt http.RoundTripper, method string, reply []byte, close bool) fuzzSide {
	up := newScriptedUpstream(t, reply, close)
	url := "http://" + up.ln.Addr().String() + "/v1/chat/completions"
	var s fuzzSide
	s.first = fuzzExchange(rt, method, url)
	// http.Transport pools a connection, and drops it again on bytes
	// nobody asked for, on a goroutine of its own: let that run first.
	time.Sleep(10 * time.Millisecond)
	s.second = fuzzExchange(rt, http.MethodGet, url)
	s.pooled = up.conns.Load() == 1
	return s
}

// FuzzTransportMatchesHTTPTransport: whatever bytes an upstream answers
// with, Transport and the http.Transport it wraps give the caller the
// same response, body bytes and trailer, and agree on pooling the
// connection. Two differences are intended, and each is pinned both
// ways:
//
//   - Accept-Encoding. A request without one goes out from
//     http.Transport asking for gzip, which it then decompresses;
//     Transport asks for nothing, so a gzip body reaches its caller as
//     sent.
//   - More than five 1xx responses before the final one. Transport
//     refuses the sixth, as http.Transport did before Go 1.23; from Go
//     1.23 on http.Transport reads on, bounded only by the header size
//     when no ClientTrace sees the 1xx.
//
// The seeds are the replies of TestTransportMatchesHTTPTransport's
// matrix and a few framing and status-line edges.
func FuzzTransportMatchesHTTPTransport(f *testing.F) {
	names := make([]string, 0, len(replies))
	for name := range replies {
		names = append(names, name)
	}
	slices.Sort(names)
	methods := []string{http.MethodGet, http.MethodHead, http.MethodPost}
	for i, name := range names {
		r := replies[name]
		f.Add([]byte(r.head+r.body+r.late), uint8(i), r.close)
	}
	for _, raw := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n2\r\nok\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\nConnection: Upgrade\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 999 Odd\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
		"garbage\r\n\r\n",
	} {
		f.Add([]byte(raw), uint8(0), false)
	}
	f.Fuzz(func(t *testing.T, reply []byte, method uint8, close bool) {
		m := methods[int(method)%len(methods)]
		ref := referenceTransport()
		defer ref.CloseIdleConnections()
		ours := NewTransport(referenceTransport())
		defer ours.CloseIdleConnections()
		want := fuzzRun(t, ref, m, reply, close)
		got := fuzzRun(t, ours, m, reply, close)
		if got.first.uncompressed {
			t.Fatalf("%s answered with %q: Transport decompressed a body it did not ask to be compressed", m, reply)
		}
		if want.first.uncompressed {
			// Accept-Encoding: http.Transport asked for gzip and undid
			// it. Transport hands the caller the encoded reply.
			if !strings.Contains(got.first.rendered, "Content-Encoding:[gzip]") {
				t.Fatalf("%s answered with %q: http.Transport decompressed, and Transport shows\n%s", m, reply, got.first.rendered)
			}
			return
		}
		if got.first.failed && got.first.n1xx == 5 && !want.first.failed {
			// The 1xx bound: Transport refused the sixth; this
			// http.Transport read past five to a final response.
			if want.first.n1xx <= 5 {
				t.Fatalf("%s answered with %q: Transport refused it after five 1xx, and http.Transport shows\n%s", m, reply, want.first.rendered)
			}
			return
		}
		if got != want {
			t.Fatalf("%s answered with %q (close %v):\nTransport\n%s\npooled %v, then\n%s\nhttp.Transport\n%s\npooled %v, then\n%s",
				m, reply, close, got.first.rendered, got.pooled, got.second.rendered, want.first.rendered, want.pooled, want.second.rendered)
		}
	})
}
