package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/textproto"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Transport is an http.RoundTripper that runs a cleartext HTTP/1.1
// exchange on the caller's goroutine, over a LIFO pool of kept-alive
// connections per host. http.Transport gives every connection a write
// loop and a read loop and hands each request to both; this writes the
// request and reads the response where RoundTrip was called, and sends
// header and body together: a chat leaves in one write(2), not two.
//
// It wraps the *http.Transport it is built over, whose dialer,
// MaxIdleConnsPerHost, IdleConnTimeout and MaxResponseHeaderBytes it
// uses, and hands that transport every request it does not run itself:
// https (TLS and HTTP/2), a request an environment proxy applies to, a
// protocol upgrade, CONNECT, Expect, a header
// http.Transport would refuse, DisableKeepAlives, and every request on a
// platform without the idle-connection peek (see canPeek). The choice
// is made from the request alone.
//
// Two things differ from http.Transport, which adds Accept-Encoding:
// gzip to a request without one and decompresses the reply: this adds
// none, and a sixth 1xx before the final response fails the exchange,
// as it did there before Go 1.23 (FuzzTransportMatchesHTTPTransport).
//
// A server that answers before it has read the whole request and then
// neither reads the rest nor closes the connection holds the exchange
// until the request's context ends: the response is read after the
// request is written. A server that closes, as net/http's does, is
// answered: its response is read even when the write then failed.
type Transport struct {
	base        *http.Transport
	dial        func(ctx context.Context, network, addr string) (net.Conn, error)
	maxIdle     int           // per host
	idleTimeout time.Duration // 0: an idle connection is kept until the server closes it
	maxHeader   int64         // bytes of response header, 1xx responses included

	mu    sync.Mutex
	idle  map[string][]*conn // by URL host; the most recently used last
	sweep *time.Timer        // closes connections idle past idleTimeout
	armed bool               // sweep will fire
}

// NewTransport builds a Transport over base, which serves every request
// the Transport does not.
func NewTransport(base *http.Transport) *Transport {
	t := &Transport{
		base:        base,
		dial:        base.DialContext,
		maxIdle:     base.MaxIdleConnsPerHost,
		idleTimeout: base.IdleConnTimeout,
		maxHeader:   base.MaxResponseHeaderBytes,
		idle:        make(map[string][]*conn),
	}
	if t.dial == nil {
		t.dial = (&net.Dialer{}).DialContext
	}
	if t.maxIdle == 0 {
		t.maxIdle = http.DefaultMaxIdleConnsPerHost
	}
	if t.maxHeader == 0 {
		t.maxHeader = 10 << 20 // http.Transport's default
	}
	return t
}

// Writers pools the 32 KiB writers a Transport sends requests through:
// a request's header and up to 32 KiB of its body leave in one write.
// Put resets a writer, keeping its buffer's bytes; nothing a writer
// sends comes from before its Reset.
var Writers = &writerPool{writers: sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}}

type writerPool struct{ writers sync.Pool }

func (p *writerPool) Get(w io.Writer) *bufio.Writer {
	bw := p.writers.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func (p *writerPool) Put(bw *bufio.Writer) {
	bw.Reset(nil)
	p.writers.Put(bw)
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.serves(req) {
		return t.base.RoundTrip(req)
	}
	ctx := req.Context()
	for replay := false; ; replay = true {
		c, err := t.conn(ctx, req.URL)
		if err != nil {
			if req.Body != nil {
				_ = req.Body.Close() // RoundTrip always closes the body; its error is not the request's
			}
			return nil, err
		}
		resp, err := t.exchange(ctx, c, req)
		if err == nil || replay || !c.reused || ctx.Err() != nil || !replayable(req, err) {
			return resp, err
		}
		if req.GetBody != nil {
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, err
			}
			again := *req
			again.Body = body
			req = &again
		}
	}
}

// CloseIdleConnections closes every pooled connection, and the base
// transport's.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*conn)
	t.mu.Unlock()
	for _, stack := range idle {
		for _, c := range stack {
			_ = c.Close()
		}
	}
	t.base.CloseIdleConnections()
}

// serves reports whether RoundTrip runs req itself.
func (t *Transport) serves(req *http.Request) bool {
	if !canPeek || t.base.DisableKeepAlives || req.URL == nil || req.URL.Scheme != "http" || req.URL.Host == "" ||
		req.Method == http.MethodConnect || len(req.Header["Upgrade"]) > 0 ||
		len(req.Header["Expect"]) > 0 || !validHeader(req) {
		return false
	}
	if t.base.Proxy != nil {
		if u, err := t.base.Proxy(req); err != nil || u != nil {
			return false
		}
	}
	return true
}

// conn pops the most recently pooled connection to u's host that is
// still fresh and open, closing the ones that are not, or dials one.
func (t *Transport) conn(ctx context.Context, u *url.URL) (*conn, error) {
	host := u.Host
	now := time.Now()
	t.mu.Lock()
	for stack := t.idle[host]; len(stack) > 0; stack = t.idle[host] {
		c := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		t.idle[host] = stack[:len(stack)-1]
		t.mu.Unlock()
		if (t.idleTimeout <= 0 || now.Sub(c.idleAt) < t.idleTimeout) && c.alive() {
			return c, nil
		}
		_ = c.Close()
		t.mu.Lock()
	}
	t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	addr := host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	nc, err := t.dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &conn{Conn: nc, host: host}
	c.br = bufio.NewReader(c)
	return c, nil
}

// exchange writes req on c and reads its response. The response's body
// hands c back to the pool at a clean end; every failure closes c.
func (t *Transport) exchange(ctx context.Context, c *conn, req *http.Request) (*http.Response, error) {
	stop := context.AfterFunc(ctx, c.expire)
	c.limit, c.read, c.written, c.writeErr = t.maxHeader, 0, 0, nil
	werr := send(c, req)
	if werr != nil && (c.writeErr == nil || c.written == 0) {
		// The request failed before reaching the wire (its body did),
		// or the connection took none of it.
		stop()
		_ = c.Close()
		if c.writeErr == nil {
			return nil, werr
		}
		return nil, canceled(ctx, &connError{err: werr, unwritten: true})
	}
	// Read even after a failed write: a server may have answered (413)
	// before it read the whole body, and closed.
	resp, err := t.readResponse(c, req)
	if err != nil {
		stop()
		_ = c.Close()
		if werr != nil {
			err = werr
		}
		return nil, canceled(ctx, &connError{err: err, unread: c.read == 0})
	}
	keep := werr == nil && resp.StatusCode >= 200 && !resp.Close && !req.Close
	if resp.Body == http.NoBody {
		t.release(c, stop, keep)
		return resp, nil
	}
	resp.Body = &body{ReadCloser: resp.Body, t: t, c: c, ctx: ctx, stop: stop, keep: keep}
	return resp, nil
}

// send writes req onto c through a pooled writer. A body of declared
// length goes out with the header, in one write while both fit in the
// buffer; one of unknown length is chunked and each chunk flushed as it
// is read, as http.Transport sends it.
func send(c *conn, req *http.Request) error {
	bw := Writers.Get(c)
	defer Writers.Put(bw)
	var w io.Writer = whole{bw}
	if req.Body != nil && req.Body != http.NoBody && req.ContentLength <= 0 {
		w = bw
	}
	if err := req.Write(w); err != nil {
		return err
	}
	return bw.Flush()
}

// whole is the pooled writer as Request.Write must see it to send the
// header with the body: an io.ByteWriter, so that it is not wrapped in
// another buffer, and not a *bufio.Writer, which it flushes between the
// two.
type whole struct{ *bufio.Writer }

// readResponse reads the final response to req, passing each 1xx before
// it to the request's httptrace.ClientTrace, at most five.
func (t *Transport) readResponse(c *conn, req *http.Request) (*http.Response, error) {
	trace := httptrace.ContextClientTrace(req.Context())
	for n1xx := 0; ; n1xx++ {
		resp, err := http.ReadResponse(c.br, req)
		if err != nil {
			if c.limit <= 0 {
				err = fmt.Errorf("net/http: server response headers exceeded %d bytes; aborted", t.maxHeader)
			}
			return nil, err
		}
		if resp.StatusCode < 100 || resp.StatusCode > 199 || resp.StatusCode == http.StatusSwitchingProtocols {
			c.limit = math.MaxInt64
			return resp, nil
		}
		if n1xx == 5 {
			return nil, errors.New("net/http: too many 1xx informational responses")
		}
		if trace != nil && trace.Got1xxResponse != nil {
			if err := trace.Got1xxResponse(resp.StatusCode, textproto.MIMEHeader(resp.Header)); err != nil {
				return nil, err
			}
			// Delivered to the caller: the header bound starts again.
			c.limit = t.maxHeader
		}
	}
}

// release pools c if keep holds, nothing unsolicited is buffered and the
// cancellation hook never fired (a connection whose deadline it set is
// never used again); it closes c otherwise.
func (t *Transport) release(c *conn, stop func() bool, keep bool) {
	if !stop() || !keep || c.br.Buffered() > 0 {
		_ = c.Close()
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	stack := t.idle[c.host]
	if len(stack) >= t.maxIdle {
		_ = c.Close()
		return
	}
	c.idleAt, c.reused = time.Now(), true
	t.idle[c.host] = append(stack, c)
	if t.idleTimeout > 0 && !t.armed {
		t.armed = true
		if t.sweep == nil {
			t.sweep = time.AfterFunc(t.idleTimeout, t.sweepIdle)
		} else {
			t.sweep.Reset(t.idleTimeout)
		}
	}
}

// sweepIdle closes the connections idle for idleTimeout, the oldest at
// the bottom of each stack, and fires again when the next one will be.
func (t *Transport) sweepIdle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.armed = false
	now := time.Now()
	var next time.Duration
	for host, stack := range t.idle {
		n := 0
		for ; n < len(stack) && now.Sub(stack[n].idleAt) >= t.idleTimeout; n++ {
			_ = stack[n].Close()
		}
		rest := append(stack[:0], stack[n:]...)
		clear(stack[len(rest):])
		if len(rest) == 0 {
			delete(t.idle, host)
			continue
		}
		t.idle[host] = rest
		if d := t.idleTimeout - now.Sub(rest[0].idleAt); next == 0 || d < next {
			next = max(d, time.Millisecond)
		}
	}
	if next > 0 {
		t.armed = true
		t.sweep.Reset(next)
	}
}

// conn is one upstream connection: the bytes of the exchange in flight
// are counted, and a response header is read under a bound. Closing one
// is abandoning it, so the error of its Close is dropped everywhere.
type conn struct {
	net.Conn
	host     string // the pool's key
	br       *bufio.Reader
	limit    int64 // bytes Read may still return
	read     int64 // since the exchange began
	written  int64
	writeErr error
	idleAt   time.Time
	reused   bool
	peek     peeker
}

func (c *conn) Read(p []byte) (int, error) {
	if c.limit <= 0 {
		return 0, errors.New("wire: response header bound reached")
	}
	if int64(len(p)) > c.limit {
		p = p[:c.limit]
	}
	n, err := c.Conn.Read(p)
	c.limit -= int64(n)
	c.read += int64(n)
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	if err != nil {
		c.writeErr = err
	}
	return n, err
}

// expire fails the exchange in flight: its context ended.
func (c *conn) expire() { _ = c.SetDeadline(time.Unix(1, 0)) }

// body is a response body that hands its connection back at a clean EOF
// and closes it on any other end.
type body struct {
	io.ReadCloser
	t    *Transport
	ctx  context.Context
	stop func() bool
	keep bool

	mu     sync.Mutex
	c      *conn // nil once handed back or closed
	closed bool
}

func (b *body) Read(p []byte) (int, error) {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return 0, errors.New("http: read on closed response body")
	}
	n, err := b.ReadCloser.Read(p)
	if err == nil {
		return n, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.c != nil {
		if err == io.EOF {
			b.t.release(b.c, b.stop, b.keep)
		} else {
			b.stop()
			_ = b.c.Close()
		}
		b.c = nil
	}
	if err != io.EOF {
		err = canceled(b.ctx, err)
	}
	return n, err
}

// Close before EOF closes the connection: what is left of the body is
// not read.
func (b *body) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.c != nil {
		b.stop()
		_ = b.c.Close()
		b.c = nil
	}
	b.closed = true
	return nil
}

// connError is a connection's failure during one exchange, with what
// the replay rule reads: whether the connection took none of the request
// or returned none of a response.
type connError struct {
	err               error
	unwritten, unread bool
}

func (e *connError) Error() string { return e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

// replayable is http.Transport's rule for a request that failed on a
// kept-alive connection: sent again if none of it was written and its
// body can be (none, or GetBody); if it was written but no response
// byte came back, only if it is idempotent as well.
func replayable(req *http.Request, err error) bool {
	var ce *connError
	if !errors.As(err, &ce) || !(req.Body == nil || req.Body == http.NoBody || req.GetBody != nil) {
		return false
	}
	if ce.unwritten {
		return true
	}
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return ce.unread
	}
	return ce.unread && (req.Header["Idempotency-Key"] != nil || req.Header["X-Idempotency-Key"] != nil)
}

// canceled is ctx's error once ctx has ended (the connection failed
// because it did), err before.
func canceled(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// validHeader reports whether req's method and header are what
// http.Transport sends as they are and net/http's server accepts; for
// anything else RoundTrip leaves the answer to the one and Server the
// reply to the other.
func validHeader(req *http.Request) bool {
	if req.Method != "" && !isToken(req.Method) {
		return false
	}
	for k, vv := range req.Header {
		if !isToken(k) {
			return false
		}
		for _, v := range vv {
			for i := 0; i < len(v); i++ {
				if c := v[i]; c < ' ' && c != '\t' || c == 0x7f {
					return false
				}
			}
		}
	}
	return true
}

func isToken[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if !tokenByte[s[i]] {
			return false
		}
	}
	return len(s) > 0
}

// tokenByte marks the bytes a token (RFC 9110 tchar) is made of: the
// visible ASCII bytes but the separators.
var tokenByte = func() (t [256]bool) {
	for c := '!'; c <= '~'; c++ {
		t[c] = !strings.ContainsRune(`"(),/:;<=>?@[\]{}`, c)
	}
	return t
}()
