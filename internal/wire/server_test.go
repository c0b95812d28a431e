package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fixedConn is an accepted connection whose addresses read the same on
// every run, so that what two servers' handlers see can be compared.
// Embedding the *net.TCPConn keeps its ReadFrom and CloseWrite, which
// net/http's server looks for.
type fixedConn struct{ *net.TCPConn }

var (
	fixedRemote = &net.TCPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 40000}
	fixedLocal  = &net.TCPAddr{IP: net.IPv4(192, 0, 2, 2), Port: 8080}
)

func (fixedConn) RemoteAddr() net.Addr { return fixedRemote }
func (fixedConn) LocalAddr() net.Addr  { return fixedLocal }

type fixedListener struct{ net.Listener }

func (l fixedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return fixedConn{c.(*net.TCPConn)}, nil
}

// seen is what a handler was given: the request as the server built it.
type seen struct {
	Method, URL, Host, RemoteAddr, Proto string
	Header                               http.Header
	Body, BodyErr                        string
	Server                               bool // http.ServerContextKey is the wrapped server
	Local                                string
}

// testServer is an http.Server serving h, run by itself (the reference)
// or wrapped in a Server, recording what each request's handler saw.
type testServer struct {
	srv  *http.Server
	ws   *Server
	addr string
	mu   sync.Mutex
	seen []seen
	// routes are the wrapped server's, one byte a request (Server.routed).
	routes []byte
}

func startServer(t testing.TB, wrapped bool, h http.Handler, tune func(*http.Server)) *testServer {
	t.Helper()
	ts := &testServer{}
	ts.srv = &http.Server{ErrorLog: log.New(io.Discard, "", 0)}
	ts.srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := seen{Method: r.Method, URL: r.URL.String(), Host: r.Host, RemoteAddr: r.RemoteAddr, Proto: r.Proto,
			Header: r.Header.Clone(), Server: r.Context().Value(http.ServerContextKey) == ts.srv}
		if a, ok := r.Context().Value(http.LocalAddrContextKey).(net.Addr); ok {
			s.Local = a.String()
		}
		tee := &teeBody{r: r.Body}
		r2 := *r
		r2.Body = tee
		defer func() {
			s.Body = tee.buf.String()
			if tee.err != nil && tee.err != io.EOF {
				s.BodyErr = tee.err.Error()
			}
			ts.mu.Lock()
			ts.seen = append(ts.seen, s)
			ts.mu.Unlock()
		}()
		h.ServeHTTP(w, &r2)
	})
	if tune != nil {
		tune(ts.srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts.addr = ln.Addr().String()
	l := fixedListener{ln}
	if wrapped {
		ts.ws = NewServer(ts.srv)
		ts.ws.routed = func(route byte) {
			ts.mu.Lock()
			ts.routes = append(ts.routes, route)
			ts.mu.Unlock()
		}
		go func() { _ = ts.ws.Serve(l) }()
	} else {
		go func() { _ = ts.srv.Serve(l) }()
	}
	t.Cleanup(func() { ts.shutdown() })
	return ts
}

func (ts *testServer) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if ts.ws != nil {
		_ = ts.ws.Shutdown(ctx)
	} else {
		_ = ts.srv.Shutdown(ctx)
	}
}

func (ts *testServer) takeSeen() []seen {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.seen
	ts.seen = nil
	return s
}

func (ts *testServer) takeRoutes() string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r := string(ts.routes)
	ts.routes = nil
	return r
}

// caseRoutes is the route each request of a matrix case takes through
// a Server: c claimed by parseHead, h handed off. A case not listed is
// one request, claimed.
var caseRoutes = map[string]string{
	"pipelined":                 "cc",
	"crlf after post":           "cc",
	"handed off mid-keep-alive": "cch",
	"empty":                     "",
	// Handed off from the first request: refused or treated specially
	// by net/http, or outside parseHead's subset.
	"repeated cl": "h", "absolute uri": "h", "lf only": "h", "connection cloſe": "h",
	"http/1.0": "h", "http/1.0 keep-alive": "h", "expect": "h", "chunked": "h", "upgrade": "h",
	"h2c preface": "h", "options *": "h", "connect": "h", "malformed request line": "h",
	"bad header name": "h", "bad header value": "h", "missing host": "h", "duplicate host": "h",
	"odd host": "h", "bad host": "h", "cl with te": "h", "duplicate cl": "h", "bad cl": "h",
	"oversize header": "h", "header over MaxHeaderBytes": "h", "partial header": "h",
	// Handler shapes that keep the connection for the request after.
	"closed body unread": "cc", "half-read body": "cc", "full duplex": "cc",
}

type teeBody struct {
	r   io.ReadCloser
	buf bytes.Buffer
	err error
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.buf.Write(p[:n])
	if err != nil && b.err == nil {
		b.err = err
	}
	return n, err
}

func (b *teeBody) Close() error { return b.r.Close() }

var dateLine = regexp.MustCompile(`\r\nDate: [^\r\n]*\r\n`)

// roundTrip sends raw on a new connection to ts, half-closes it, and
// returns every byte the server sent until it closed, Date normalised.
func roundTrip(t testing.TB, ts *testServer, raw []byte) []byte {
	t.Helper()
	c, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		_, _ = c.Write(raw) // the server may close before it reads all of it
		_ = c.(*net.TCPConn).CloseWrite()
	}()
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	// A server that closes with request bytes unread may reset the
	// connection; the reply bytes before the reset are what counts.
	got, err := io.ReadAll(c)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("no end to the reply after 10s; so far %q", trim(got))
	}
	return dateLine.ReplaceAll(got, []byte("\r\nDate: X\r\n"))
}

// exchangeCase is one row of the differential matrix: raw request bytes
// and the handler that answers them.
type exchangeCase struct {
	name string
	raw  string
	h    http.HandlerFunc
}

// readAndReply reads the whole body and answers with what it read.
func readAndReply(w http.ResponseWriter, r *http.Request) {
	b, err := io.ReadAll(r.Body)
	w.Header().Set("X-Read", fmt.Sprint(len(b), err))
	_, _ = fmt.Fprintf(w, "%s %s %d\n", r.Method, r.URL.Path, len(b))
}

func post(body string) string {
	return fmt.Sprintf("POST /p HTTP/1.1\r\nHost: example.com\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

const getRaw = "GET /g?q=1 HTTP/1.1\r\nHost: example.com\r\nUser-Agent: t\r\n\r\n"

func requestShapes() []exchangeCase {
	big := strings.Repeat("h", 8<<10)
	return []exchangeCase{
		{"get", getRaw, readAndReply},
		{"head", "HEAD /g HTTP/1.1\r\nHost: example.com\r\n\r\n", readAndReply},
		{"post/0", post(""), readAndReply},
		{"post/1", post("x"), readAndReply},
		{"post/4KiB", post(string(pattern(4 << 10))), readAndReply},
		{"post/64KiB+1", post(string(pattern(64<<10 + 1))), readAndReply},
		{"post/short", "POST /p HTTP/1.1\r\nHost: example.com\r\nContent-Length: 10\r\n\r\nabc", readAndReply},
		{"pipelined", getRaw + post("second"), readAndReply},
		{"connection close", "GET / HTTP/1.1\r\nHost: example.com\r\nConnection: close\r\n\r\n" + getRaw, readAndReply},
		// net/http closes on a close token bounded by SP, HTAB or comma
		// in the first Connection value, matched in ASCII only.
		{"connection foo close", "GET / HTTP/1.1\r\nHost: example.com\r\nConnection: foo close\r\n\r\n" + getRaw, readAndReply},
		{"connection close foo", "GET / HTTP/1.1\r\nHost: example.com\r\nConnection: close foo\r\n\r\n" + getRaw, readAndReply},
		{"connection cloſe", "GET / HTTP/1.1\r\nHost: example.com\r\nConnection: cloſe\r\n\r\n" + getRaw, readAndReply},
		{"http/1.0", "GET / HTTP/1.0\r\nHost: example.com\r\n\r\n", readAndReply},
		{"http/1.0 keep-alive", "GET / HTTP/1.0\r\nHost: example.com\r\nConnection: keep-alive\r\n\r\n" + getRaw, readAndReply},
		{"expect", "POST /p HTTP/1.1\r\nHost: example.com\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\nabc", readAndReply},
		{"chunked", "POST /p HTTP/1.1\r\nHost: example.com\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", readAndReply},
		{"upgrade", "GET /ws HTTP/1.1\r\nHost: example.com\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n\r\n", readAndReply},
		{"h2c preface", "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", readAndReply},
		{"options *", "OPTIONS * HTTP/1.1\r\nHost: example.com\r\n\r\n", readAndReply},
		{"connect", "CONNECT example.com:443 HTTP/1.1\r\nHost: example.com:443\r\n\r\n", readAndReply},
		{"malformed request line", "GARBAGE\r\n\r\n", readAndReply},
		{"bad header name", "GET / HTTP/1.1\r\nHost: example.com\r\nBad Name: x\r\n\r\n", readAndReply},
		{"bad header value", "GET / HTTP/1.1\r\nHost: example.com\r\nX-V: a\x01b\r\n\r\n", readAndReply},
		{"missing host", "GET / HTTP/1.1\r\n\r\n", readAndReply},
		{"duplicate host", "GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n", readAndReply},
		{"odd host", "GET / HTTP/1.1\r\nHost: a~b!c\r\n\r\n", readAndReply},
		{"bad host", "GET / HTTP/1.1\r\nHost: a b\r\n\r\n", readAndReply},
		{"cl with te", "POST /p HTTP/1.1\r\nHost: example.com\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", readAndReply},
		{"duplicate cl", "POST /p HTTP/1.1\r\nHost: example.com\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd", readAndReply},
		{"repeated cl", "POST /p HTTP/1.1\r\nHost: example.com\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc", readAndReply},
		{"bad cl", "POST /p HTTP/1.1\r\nHost: example.com\r\nContent-Length: x\r\n\r\nabc", readAndReply},
		{"oversize header", "GET / HTTP/1.1\r\nHost: example.com\r\nX-Big: " + big + "\r\n\r\n" + getRaw, readAndReply},
		{"header over MaxHeaderBytes", "GET / HTTP/1.1\r\nHost: example.com\r\nX-Big: " + strings.Repeat(big, 130) + "\r\n\r\n", readAndReply},
		{"partial header", "GET / HTTP/1.1\r\nHost: exa", readAndReply},
		{"crlf after post", post("abc") + "\r\n" + getRaw, readAndReply},
		{"absolute uri", "GET http://other.example/x HTTP/1.1\r\nHost: example.com\r\n\r\n", readAndReply},
		{"lf only", "GET /lf HTTP/1.1\nHost: example.com\n\n", readAndReply},
		{"handed off mid-keep-alive", getRaw + post("one") + "GET /h HTTP/1.1\r\nHost: example.com\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nab" + getRaw, readAndReply},
		{"empty", "", readAndReply},
	}
}

func handlerShapes() []exchangeCase {
	req := post("hello")
	return []exchangeCase{
		{"nothing written", req, func(w http.ResponseWriter, r *http.Request) {}},
		{"write header only", req, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusCreated) }},
		{"fits the buffer", req, func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(pattern(100)) }},
		{"exceeds the buffer", req, func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(pattern(5000)) }},
		{"uneven writes", req, func(w http.ResponseWriter, r *http.Request) {
			for _, n := range []int{100, 3000, 10, 2048, 1} {
				_, _ = w.Write(pattern(n))
			}
		}},
		{"write string", req, func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "a string") }},
		{"shorter than declared", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "10")
			_, _ = w.Write([]byte("12345"))
		}},
		{"longer than declared", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "3")
			_, err := w.Write([]byte("12345"))
			_, _ = w.Write([]byte(fmt.Sprint(err)[:3]))
		}},
		{"invalid declared length", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "-1")
			_, _ = w.Write([]byte("abc"))
		}},
		{"flush mid-body", req, func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("first"))
			w.(http.Flusher).Flush()
			_, _ = w.Write([]byte("second"))
		}},
		{"flush before anything", req, func(w http.ResponseWriter, r *http.Request) { w.(http.Flusher).Flush() }},
		{"declared trailers", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Trailer", "X-T1, X-T2, Content-Length")
			_, _ = w.Write([]byte("body"))
			w.Header().Set("X-T1", "v1")
			w.Header().Set("X-T2", "v2")
		}},
		{"prefixed trailer", req, func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("body"))
			w.Header().Set(http.TrailerPrefix+"X-Late", "late")
		}},
		{"1xx then 200", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Link", "</s.css>; rel=preload")
			w.WriteHeader(http.StatusEarlyHints)
			_, _ = w.Write([]byte("final"))
		}},
		{"204 with a body", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(http.StatusNoContent)
			_, err := w.Write([]byte("nope"))
			w.Header().Set("X-Err", fmt.Sprint(err))
		}},
		{"304 with a body", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			w.Header().Set("Content-Length", "4")
			w.WriteHeader(http.StatusNotModified)
			_, _ = w.Write([]byte("nope"))
		}},
		{"head with a body", "HEAD /h HTTP/1.1\r\nHost: example.com\r\n\r\n", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("<html>a head</html>"))
		}},
		{"head with nothing", "HEAD /h HTTP/1.1\r\nHost: example.com\r\n\r\n", func(w http.ResponseWriter, r *http.Request) {}},
		{"sniffed", req, func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("<html><body>hi</body></html>")) }},
		{"content encoding", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Encoding", "gzip")
			_, _ = w.Write([]byte("\x1f\x8b not really"))
		}},
		{"unread body within the limit", post(string(pattern(100 << 10))), func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("ignored the body"))
		}},
		{"unread body past the limit", post(string(pattern(300<<10))) + getRaw, func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("ignored the body"))
		}},
		{"closed body unread", post(string(pattern(1000))) + getRaw, func(w http.ResponseWriter, r *http.Request) {
			_ = r.Body.Close()
			_, _ = w.Write([]byte("closed it"))
		}},
		{"half-read body", post(string(pattern(1000))) + getRaw, func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.ReadFull(r.Body, make([]byte, 10))
			_, _ = w.Write([]byte("read ten"))
		}},
		{"full duplex", post(string(pattern(1000))) + getRaw, func(w http.ResponseWriter, r *http.Request) {
			_ = http.NewResponseController(w).EnableFullDuplex()
			_, _ = w.Write(pattern(3000))
			_, _ = io.Copy(io.Discard, r.Body)
		}},
		{"abort after a flush", req + getRaw, func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("partial"))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
		{"panic before a write", req + getRaw, func(w http.ResponseWriter, r *http.Request) { panic("boom") }},
		{"copy", req, func(w http.ResponseWriter, r *http.Request) { _, _ = io.Copy(w, bytes.NewReader(pattern(70000))) }},
		{"copy small", req, func(w http.ResponseWriter, r *http.Request) { _, _ = io.Copy(w, strings.NewReader("small")) }},
		{"copy with length", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "70000")
			_, _ = io.Copy(w, bytes.NewReader(pattern(70000)))
		}},
		{"header changed after WriteHeader", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Before", "1")
			w.WriteHeader(http.StatusAccepted)
			w.Header().Set("X-After", "1")
			_, _ = w.Write([]byte("x"))
		}},
		{"header first touched after WriteHeader", req, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			w.Header().Set("X-After", "1")
		}},
		{"connection close reply", req + getRaw, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "close")
			_, _ = w.Write([]byte("bye"))
		}},
		{"connection foo close reply", "GET / HTTP/1.1\r\nHost: example.com\r\nConnection: close\r\n\r\n" + getRaw, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "foo close")
			_, _ = w.Write([]byte("bye"))
		}},
		{"identity transfer encoding", req + getRaw, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Transfer-Encoding", "identity")
			_, _ = w.Write(pattern(3000))
		}},
		{"chunked and length", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Transfer-Encoding", "chunked")
			w.Header().Set("Content-Length", "5")
			_, _ = w.Write([]byte("hello"))
		}},
		{"superfluous WriteHeader", req, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusTeapot)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("tea"))
		}},
		{"unknown status", req, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(599) }},
		{"newline in a header value", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Nl", "a\nb")
			w.Header()["x-lower"] = []string{" spaced "}
		}},
		{"own date", req, func(w http.ResponseWriter, r *http.Request) { w.Header().Set("Date", "yesterday") }},
		{"switching protocols", req, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "Upgrade")
			w.Header().Set("Upgrade", "x")
			w.WriteHeader(http.StatusSwitchingProtocols)
		}},
	}
}

// compare runs c against the reference and against want and reports
// any difference in the reply bytes or in what the handler saw.
func compare(t *testing.T, c exchangeCase, wantWrapped, gotWrapped bool) {
	t.Helper()
	ref := startServer(t, wantWrapped, c.h, nil)
	sut := startServer(t, gotWrapped, c.h, nil)
	want := roundTrip(t, ref, []byte(c.raw))
	got := roundTrip(t, sut, []byte(c.raw))
	if !bytes.Equal(got, want) {
		t.Errorf("%s: reply differs\n got %q\nwant %q", c.name, trim(got), trim(want))
	}
	ws, gs := ref.takeSeen(), sut.takeSeen()
	if fmt.Sprintf("%+v", gs) != fmt.Sprintf("%+v", ws) {
		t.Errorf("%s: handler saw\n %+v\nwant %+v", c.name, gs, ws)
	}
	if gotWrapped {
		want, ok := caseRoutes[c.name]
		if !ok {
			want = "c"
		}
		if got := sut.takeRoutes(); got != want {
			t.Errorf("%s: routes %q, want %q", c.name, got, want)
		}
	}
}

func trim(b []byte) []byte {
	if len(b) > 600 {
		return append(b[:300:300], append([]byte(" … "), b[len(b)-300:]...)...)
	}
	return b
}

// TestServerMatchesHTTPServer: for every request shape and every handler
// shape of the matrix, the bytes a client reads from a Server are the
// bytes it reads from the http.Server it wraps, Date aside, and each
// handler sees the same request: method, URL, Host, RemoteAddr,
// headers, body and the server and local-address context values. The
// harness is first run with http.Server on both sides, to show it
// tells nothing apart by itself.
func TestServerMatchesHTTPServer(t *testing.T) {
	cases := append(requestShapes(), handlerShapes()...)
	t.Run("harness", func(t *testing.T) {
		for _, c := range cases[:4] {
			compare(t, c, false, false)
		}
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			compare(t, c, false, true)
		})
	}
}

// TestServerMatchesHTTPServerBehindAReverseProxy: a ReverseProxy in
// front of an SSE upstream, on a connection kept open (a half-close
// would end the proxied call), reads the same under both servers. The
// upstream sends each event once the client has read the one before,
// so that the chunks do not depend on timing.
func TestServerMatchesHTTPServerBehindAReverseProxy(t *testing.T) {
	next := make(chan struct{})
	const event = "data: event\n\n"
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i := 0; i < 3; i++ {
			if i > 0 {
				<-next
			}
			_, _ = io.WriteString(w, event)
			w.(http.Flusher).Flush()
		}
	}))
	defer upstream.Close()
	u, _ := url.Parse(upstream.URL)
	rp := httputil.NewSingleHostReverseProxy(u)
	var replies [2][]byte
	for i, wrapped := range []bool{false, true} {
		ts := startServer(t, wrapped, rp, nil)
		c, err := net.Dial("tcp", ts.addr)
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		br := bufio.NewReader(io.TeeReader(c, &raw))
		for _, path := range []string{"/a", "/b"} {
			fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: example.com\r\n\r\n", path)
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 3; j++ {
				if j > 0 {
					next <- struct{}{}
				}
				if _, err := io.ReadFull(resp.Body, make([]byte, len(event))); err != nil {
					t.Fatal(err)
				}
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		c.Close()
		replies[i] = dateLine.ReplaceAll(raw.Bytes(), []byte("\r\nDate: X\r\n"))
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("reply differs\n got %q\nwant %q", replies[1], replies[0])
	}
}

// FuzzServerMatchesHTTPServer: whatever bytes a client sends, a Server
// and the http.Server it wraps send back the same bytes, Date aside,
// and their handlers see the same requests. The seeds are the matrix's
// request shapes and the request-smuggling ones.
func FuzzServerMatchesHTTPServer(f *testing.F) {
	for _, c := range requestShapes() {
		if len(c.raw) < 4<<10 {
			f.Add([]byte(c.raw))
		}
	}
	for _, raw := range smugglingSeeds {
		f.Add([]byte(raw))
	}
	ref := startServer(f, false, http.HandlerFunc(readAndReply), nil)
	sut := startServer(f, true, http.HandlerFunc(readAndReply), nil)
	f.Fuzz(func(t *testing.T, raw []byte) {
		want := roundTrip(t, ref, raw)
		got := roundTrip(t, sut, raw)
		if !bytes.Equal(got, want) {
			t.Fatalf("reply to %q differs\n got %q\nwant %q", raw, trim(got), trim(want))
		}
		ws, gs := ref.takeSeen(), sut.takeSeen()
		if fmt.Sprintf("%+v", gs) != fmt.Sprintf("%+v", ws) {
			t.Fatalf("for %q the handler saw\n %+v\nwant %+v", raw, gs, ws)
		}
	})
}

// smugglingSeeds are request bytes that servers have been told apart
// by: framing, folding, stray bytes and odd request lines.
var smugglingSeeds = []string{
	"POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\nGET /smuggled HTTP/1.1\r\nHost: a\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: a\r\ntransfer-encoding: Chunked\r\n\r\n0\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked, identity\r\n\r\n0\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: a\r\nContent-Length: +3\r\n\r\nabc",
	"POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 3 \r\n\r\nabc",
	"POST / HTTP/1.1\r\nHost: a\r\nContent-Length : 3\r\n\r\nabc",
	"POST / HTTP/1.1\r\nHost: a\r\n Content-Length: 3\r\n\r\nabc",
	"GET / HTTP/1.1\r\nHost: a\r\n b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\rX: b\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nX: \x00\r\n\r\n",
	"GET / HTTP/1.1\r\nHOST: a\r\nhost: a\r\n\r\n",
	"GET  / HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET / HTTP/1.1 \r\nHost: a\r\n\r\n",
	"GET / http/1.1\r\nHost: a\r\n\r\n",
	"GET / HTTP/1.2\r\nHost: a\r\n\r\n",
	"\r\nGET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"POST / HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n\r\n\r\nGET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET / HTTP/1.1\r\nHost: a\r\nContent-Length: 3\r\n\r\nabcGET / HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET /%zz HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET http://[::1]:80/x HTTP/1.1\r\nHost: [::1]:80\r\n\r\n",
}

// countingConn counts the deadline resets of a connection.
type countingConn struct {
	fixedConn
	resets *atomic.Int64
}

func (c countingConn) SetDeadline(t time.Time) error {
	c.resets.Add(1)
	return c.fixedConn.SetDeadline(t)
}

func (c countingConn) SetReadDeadline(t time.Time) error {
	c.resets.Add(1)
	return c.fixedConn.SetReadDeadline(t)
}

func (c countingConn) SetWriteDeadline(t time.Time) error {
	c.resets.Add(1)
	return c.fixedConn.SetWriteDeadline(t)
}

type countingListener struct {
	net.Listener
	resets atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{fixedConn{c.(*net.TCPConn)}, &l.resets}, nil
}

// TestServerResetsDeadlinesOncePerRequest: with passerve's and
// pasproxy's timeouts, a kept-alive request answered within the grace
// costs one deadline reset, and a new connection one more; net/http's
// count is logged beside it.
func TestServerResetsDeadlinesOncePerRequest(t *testing.T) {
	const requests = 50
	for _, tc := range []struct {
		name string
		tune func(*http.Server)
	}{
		{"passerve", func(s *http.Server) {
			s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout = 5*time.Second, 30*time.Second, 30*time.Second
		}},
		{"pasproxy", func(s *http.Server) { s.ReadHeaderTimeout, s.IdleTimeout = 5*time.Second, 2*time.Minute }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var counts [2]int64
			for i, wrapped := range []bool{false, true} {
				srv := &http.Server{Handler: http.HandlerFunc(readAndReply)}
				tc.tune(srv)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				cl := &countingListener{Listener: ln}
				ws := NewServer(srv)
				if wrapped {
					go func() { _ = ws.Serve(cl) }()
				} else {
					go func() { _ = srv.Serve(cl) }()
				}
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				br := bufio.NewReader(c)
				for j := 0; j < requests; j++ {
					_, _ = io.WriteString(c, post("abc"))
					resp, err := http.ReadResponse(br, nil)
					if err != nil {
						t.Fatal(err)
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				c.Close()
				counts[i] = cl.resets.Load()
				if wrapped {
					_ = ws.Shutdown(context.Background())
				} else {
					_ = srv.Shutdown(context.Background())
				}
			}
			t.Logf("deadline resets for %d kept-alive requests: net/http %d, Server %d", requests, counts[0], counts[1])
			if counts[1] > requests+1 {
				t.Fatalf("%d deadline resets for %d requests, want at most one per request and one for the new connection", counts[1], requests)
			}
		})
	}
}

// TestServerSeesAHangUp: a client that leaves while its request's
// handler waits ends the request's context within a second, as
// net/http's background read ends it. Fails if nothing watches the
// connection after the grace.
func TestServerSeesAHangUp(t *testing.T) {
	started, ended := make(chan struct{}), make(chan struct{})
	ts := startServer(t, true, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		close(started)
		select {
		case <-r.Context().Done():
			close(ended)
		case <-time.After(5 * time.Second):
		}
	}), nil)
	c, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.WriteString(c, post("abc"))
	<-started
	time.Sleep(2 * hangUpGrace)
	c.Close()
	select {
	case <-ended:
	case <-time.After(time.Second):
		t.Fatal("the handler's context did not end within 1s of the client hanging up")
	}
}

// TestServerPipelinedRequestDuringTheWatch: a request that arrives
// while the one before it is watched is served in full, and does not
// cancel that one. Fails if the byte the watcher read is dropped: the
// second request loses its first byte.
func TestServerPipelinedRequestDuringTheWatch(t *testing.T) {
	second := make(chan struct{})
	ts := startServer(t, true, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-second
			time.Sleep(2 * hangUpGrace) // the watcher reads the next request's first byte
			if err := r.Context().Err(); err != nil {
				t.Errorf("the first request's context ended: %v", err)
			}
		}
		readAndReply(w, r)
	}), nil)
	c, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _ = io.WriteString(c, "GET /slow HTTP/1.1\r\nHost: example.com\r\n\r\n")
	time.Sleep(3 * hangUpGrace)
	_, _ = io.WriteString(c, "GET /next HTTP/1.1\r\nHost: example.com\r\n\r\n")
	close(second)
	br := bufio.NewReader(c)
	for _, want := range []string{"GET /slow 0\n", "GET /next 0\n"} {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("%d %q, want 200 %q", resp.StatusCode, body, want)
		}
	}
}

// TestServerTimeoutsCloseSlowConnections: ReadHeaderTimeout closes a
// connection whose header stalls, on a new connection and on a
// kept-alive one; ReadTimeout one whose body stalls; IdleTimeout one
// left idle. Each closes after its timeout and well before a second
// has passed. Fails if any of the deadlines is skipped.
func TestServerTimeoutsCloseSlowConnections(t *testing.T) {
	const timeout = 150 * time.Millisecond
	for _, tc := range []struct {
		name, raw string
		tune      func(*http.Server)
	}{
		{"header, new connection", "GET / HTTP/1.1\r\nHost: exa", func(s *http.Server) { s.ReadHeaderTimeout = timeout }},
		{"header, kept alive", getRaw + "GET / HTTP/1.1\r\nHost: exa", func(s *http.Server) { s.ReadHeaderTimeout = timeout }},
		{"body", "POST /p HTTP/1.1\r\nHost: example.com\r\nContent-Length: 10\r\n\r\nabc", func(s *http.Server) { s.ReadTimeout = timeout }},
		{"idle", getRaw, func(s *http.Server) { s.IdleTimeout = timeout }},
		{"idle after a read timeout", getRaw, func(s *http.Server) { s.ReadTimeout, s.IdleTimeout = 50*time.Millisecond, timeout }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := startServer(t, true, http.HandlerFunc(readAndReply), tc.tune)
			c, err := net.Dial("tcp", ts.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			start := time.Now()
			_, _ = io.WriteString(c, tc.raw)
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = io.ReadAll(c)
			took := time.Since(start)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() || took > time.Second {
				t.Fatalf("still open after %v", took)
			}
			if took < timeout-10*time.Millisecond {
				t.Fatalf("closed after %v, before the %v timeout", took, timeout)
			}
		})
	}
}

// TestServerShutdown: Shutdown closes an idle kept-alive connection,
// lets a request in flight finish and be answered, and shuts down a
// connection it handed off. Fails if the wrapped server's Shutdown is
// not called: the handed-off connection stays open.
func TestServerShutdown(t *testing.T) {
	release := make(chan struct{})
	inFlight := make(chan struct{})
	ts := startServer(t, true, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(inFlight)
			<-release
		}
		readAndReply(w, r)
	}), nil)
	dial := func(raw string) (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", ts.addr)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.WriteString(c, raw)
		return c, bufio.NewReader(c)
	}
	readReply := func(br *bufio.Reader) {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	idle, idleBR := dial(getRaw)
	defer idle.Close()
	readReply(idleBR)
	handedOff, handedOffBR := dial("GET / HTTP/1.0\r\nHost: example.com\r\nConnection: keep-alive\r\n\r\n")
	defer handedOff.Close()
	readReply(handedOffBR)
	slow, slowBR := dial("GET /slow HTTP/1.1\r\nHost: example.com\r\n\r\n")
	defer slow.Close()
	<-inFlight

	done := make(chan error, 1)
	go func() { done <- ts.ws.Shutdown(context.Background()) }()
	for _, c := range []struct {
		name string
		br   *bufio.Reader
		conn net.Conn
	}{{"idle", idleBR, idle}, {"handed off", handedOffBR, handedOff}} {
		_ = c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.br.ReadByte(); err != io.EOF {
			t.Errorf("%s connection: read %v after Shutdown, want EOF", c.name, err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	readReply(slowBR)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServerHandOffReplaysBufferedBytes: a connection handed off after
// it was served for a while — its third request carries Expect — has
// its remaining requests answered exactly as net/http alone answers
// them. Fails if the bytes read before the hand-off are not replayed.
func TestServerHandOffReplaysBufferedBytes(t *testing.T) {
	for _, c := range requestShapes() {
		if c.name == "handed off mid-keep-alive" {
			compare(t, c, false, true)
			return
		}
	}
	t.Fatal("no such case")
}

// BenchmarkServerKeepAlive: one client sends kept-alive augment-sized
// POSTs one after another, to an http.Server and to a Server wrapping
// one. Run with -trace and count GoCreate events for goroutines started
// per request.
func BenchmarkServerKeepAlive(b *testing.B) {
	benchKeepAlive(b, []byte(post(`{"prompt":"Explain how tides form.","salt":"s"}`)))
}

// BenchmarkServerKeepAliveDeclined: BenchmarkServerKeepAlive's POST with
// LF-only lines, a head parseHead declines: what a client the Server
// does not claim costs, its connection handed off at the first request
// and served by the wrapped server from then on.
func BenchmarkServerKeepAliveDeclined(b *testing.B) {
	raw := post(`{"prompt":"Explain how tides form.","salt":"s"}`)
	n := headerEnd([]byte(raw))
	benchKeepAlive(b, []byte(strings.ReplaceAll(raw[:n], "\r\n", "\n")+raw[n:]))
}

func benchKeepAlive(b *testing.B, req []byte) {
	reply := bytes.Repeat([]byte("x"), 240)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply)
	})
	for _, wrapped := range []bool{false, true} {
		name := "net/http"
		if wrapped {
			name = "wire"
		}
		b.Run(name, func(b *testing.B) {
			ts := startServer(b, wrapped, h, func(s *http.Server) {
				s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout = 5*time.Second, 30*time.Second, 30*time.Second
			})
			c, err := net.Dial("tcp", ts.addr)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			br := bufio.NewReader(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Write(req); err != nil {
					b.Fatal(err)
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			b.StopTimer()
			ts.takeSeen()
		})
	}
}
