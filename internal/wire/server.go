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
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hangUpGrace is how long a request runs before its connection is
// watched for the client hanging up. net/http watches every request
// from its first byte, with a goroutine per request; here a request
// answered within the grace starts none. 10 ms is above every pasperf
// workload's p999 and far below an upstream model call, so a client
// that leaves a slow proxied chat still cancels r.Context().
const hangUpGrace = 10 * time.Millisecond

const (
	// readerSize is the pooled reader a request's header block must fit
	// in to be served here, net/http's own reader size.
	readerSize = 4 << 10
	// replyBufferSize is net/http's bufferBeforeChunkingSize: a handler
	// that finishes within it is answered with a Content-Length, and
	// chunked otherwise.
	replyBufferSize = 2048
	// maxPostHandlerReadBytes is how much of a body the handler left
	// unread is read to keep the connection, as net/http reads.
	maxPostHandlerReadBytes = 256 << 10
)

// Server serves a daemon's *http.Server with each cleartext HTTP/1.1
// keep-alive exchange run on its connection's own goroutine. Per
// request, net/http starts a goroutine to watch for a hang-up, stops it
// with a read deadline in the past and resets the connection's
// deadlines eight or nine times; this resets them once, and watches
// only a request that outlives hangUpGrace. A request's header block,
// whole in the connection's pooled reader, is served here when parseHead
// can build exactly the request http.ReadRequest builds; its reply
// leaves through a pooled Writers buffer, in one write(2) when it fits.
//
// The Handler, the four timeouts, MaxHeaderBytes, ErrorLog,
// BaseContext and ConnContext are the wrapped server's. A connection
// goes to the wrapped server, with the bytes read so far replayed,
// through an in-process listener, from the first request parseHead
// declines: one that is HTTP/1.0, malformed or refused by net/http (so
// the 400, 431 and 501 replies are net/http's own), carries Expect,
// Upgrade or a Transfer-Encoding, is the h2c preface, CONNECT or
// OPTIONS *, falls outside parseHead's subset, or has a header block
// larger than the pooled reader or MaxHeaderBytes. ConnState hooks and
// TLS see only those connections.
//
// Replies are byte-identical to net/http's but for Date
// (TestServerMatchesHTTPServer). A handler cannot hijack.
type Server struct {
	srv     *http.Server
	handoff *handoffListener

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	shutdown  atomic.Bool
	inner     sync.Once

	// routed, when set, is told the route of each request: set by tests,
	// to see which path served what.
	routed func(route byte)
}

// The routes of a request: claimed by parseHead, or handed off with its
// connection.
const (
	routeClaimed   = 'c'
	routeHandedOff = 'h'
)

// NewServer wraps srv, which serves what the Server hands off.
func NewServer(srv *http.Server) *Server {
	return &Server{
		srv:       srv,
		handoff:   &handoffListener{conns: make(chan net.Conn), done: make(chan struct{})},
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
	}
}

// Serve accepts connections on l until Shutdown, when it returns
// http.ErrServerClosed, or until Accept fails for good.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	s.inner.Do(func() {
		s.handoff.addr = l.Addr()
		// Returns http.ErrServerClosed once Shutdown closes the handoff
		// listener; nothing else ends it.
		go func() { _ = s.srv.Serve(s.handoff) }()
	})
	base := context.Background()
	if s.srv.BaseContext != nil {
		base = s.srv.BaseContext(l)
	}
	ctx := context.WithValue(base, http.ServerContextKey, s.srv)
	var delay time.Duration
	for {
		c, err := l.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return http.ErrServerClosed
			}
			var ne interface{ Temporary() bool }
			if errors.As(err, &ne) && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				s.logf("http: Accept error: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		connCtx := ctx
		if cc := s.srv.ConnContext; cc != nil {
			connCtx = cc(connCtx, c)
		}
		sc := &serverConn{s: s, conn: c, since: time.Now()}
		sc.ctx = context.WithValue(connCtx, http.LocalAddrContextKey, c.LocalAddr())
		sc.cond.L = &sc.mu
		s.mu.Lock()
		if s.shutdown.Load() {
			s.mu.Unlock()
			_ = c.Close() // accepted as the listener closed
			return http.ErrServerClosed
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		go sc.serve()
	}
}

// Shutdown stops the Server as http.Server.Shutdown stops one: it
// closes the listeners, closes each connection once it is idle, and
// shuts the wrapped server down with it; it returns when all are
// closed, or with ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown.Store(true)
	var lerr error
	for l := range s.listeners {
		if err := l.Close(); err != nil && lerr == nil {
			lerr = err
		}
	}
	s.mu.Unlock()
	inner := make(chan error, 1)
	go func() { inner <- s.srv.Shutdown(ctx) }()
	_ = s.handoff.Close() // only ends Accept
	poll := time.Millisecond
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for !s.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			poll = min(2*poll, 500*time.Millisecond)
			timer.Reset(poll)
		}
	}
	if err := <-inner; err != nil {
		return err
	}
	return lerr
}

// closeIdle closes every idle connection, and a new one that has sent
// nothing for five seconds, and reports whether none is left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := time.Now().Add(-5 * time.Second)
	for sc := range s.conns {
		if sc.state.CompareAndSwap(connIdle, connClosed) ||
			sc.since.Before(old) && sc.state.CompareAndSwap(connNew, connClosed) {
			_ = sc.conn.Close() // idle: nobody is waiting on it
		}
	}
	return len(s.conns) == 0
}

func (s *Server) logf(format string, args ...any) {
	if s.srv.ErrorLog != nil {
		s.srv.ErrorLog.Printf(format, args...)
	} else {
		log.Printf(format, args...)
	}
}

// handoffListener is the wrapped server's listener: it accepts the
// connections the Server hands off.
type handoffListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	addr  net.Addr
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *handoffListener) Addr() net.Addr { return l.addr }

// replayConn is a handed-off connection: what was read from it before
// the hand-off, then the rest.
type replayConn struct {
	net.Conn
	buf []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.buf) > 0 {
		n := copy(p, c.buf)
		c.buf = c.buf[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// The states of a connection, as Shutdown reads them.
const (
	connNew int32 = iota
	connActive
	connIdle
	connClosed
)

// The hang-up watch of the request in flight.
const (
	watchOff      = iota // no request, or one that is being answered
	watchArmed           // the grace timer runs
	watchWatching        // past the grace: a watcher reads, or will once the body is read
)

var aLongTimeAgo = time.Unix(1, 0)

var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readerSize) }}

var replyWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, replyBufferSize) }}

// serverConn is one connection the Server serves.
type serverConn struct {
	s          *Server
	conn       net.Conn
	ctx        context.Context // the Server's, with the local address
	since      time.Time       // accepted
	state      atomic.Int32
	remoteAddr string

	br         *bufio.Reader // over the serverConn: hasByte, then conn
	bw         *bufio.Writer // a reply's, from Writers; nil between replies
	werr       error         // the first failed write
	lastMethod string

	readDL, writeDL time.Time // as last set

	headerTimeout, idleTimeout, readTimeout, writeTimeout, shortest time.Duration

	// The hang-up watch, under mu. The watcher is the grace timer's
	// goroutine, or one the body's end starts once the grace is past.
	mu       sync.Mutex
	cond     sync.Cond
	watch    int
	start    time.Time          // the request's header was read
	cancel   context.CancelFunc // the request in flight's
	bodyDone bool               // its body is read to the end, or it has none
	reading  bool               // a watcher is in conn.Read
	aborted  bool               // and its read is being cut short
	setRead  bool               // the handler set its own read deadline
	setWrite bool               // or write deadline
	hasByte  bool               // the watcher read the next request's first byte
	byteBuf  [1]byte
	timer    *time.Timer
}

// Read is what the connection's reader reads: the byte a watcher read,
// then the connection.
func (sc *serverConn) Read(p []byte) (int, error) {
	if sc.hasByte && len(p) > 0 {
		p[0] = sc.byteBuf[0]
		sc.hasByte = false
		return 1, nil
	}
	return sc.conn.Read(p)
}

// Write is what a reply's writer writes to, noting the first failure.
func (sc *serverConn) Write(p []byte) (int, error) {
	n, err := sc.conn.Write(p)
	if err != nil && sc.werr == nil {
		sc.werr = err
	}
	return n, err
}

// writer returns the reply's pooled writer, taking one if need be.
func (sc *serverConn) writer() *bufio.Writer {
	if sc.bw == nil {
		sc.bw = Writers.Get(sc)
	}
	return sc.bw
}

// flush writes out what the reply's writer holds and hands it back.
func (sc *serverConn) flush() {
	if sc.bw != nil {
		_ = sc.bw.Flush() // a failure is in sc.werr
		Writers.Put(sc.bw)
		sc.bw = nil
	}
}

func (sc *serverConn) setReadDeadline(t time.Time) {
	if !t.Equal(sc.readDL) {
		sc.readDL = t
		_ = sc.conn.SetReadDeadline(t) // fails only on a closed connection, which the next read reports
	}
}

func (sc *serverConn) setWriteDeadline(t time.Time) {
	if !t.Equal(sc.writeDL) {
		sc.writeDL = t
		_ = sc.conn.SetWriteDeadline(t) // as setReadDeadline
	}
}

// after is now+d, or no deadline for d 0.
func after(now time.Time, d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return now.Add(d)
}

// serve runs the connection's exchanges until it closes or is handed
// off.
func (sc *serverConn) serve() {
	s := sc.s
	if ra := sc.conn.RemoteAddr(); ra != nil {
		sc.remoteAddr = ra.String()
	}
	sc.br = readers.Get().(*bufio.Reader)
	sc.br.Reset(sc)
	handedOff := false
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		sc.mu.Lock()
		if sc.timer != nil {
			sc.timer.Stop()
		}
		sc.mu.Unlock()
		if !handedOff {
			_ = sc.conn.Close() // the connection is done; nobody reads a close error
		}
		sc.br.Reset(nil)
		readers.Put(sc.br)
	}()
	sc.timeouts()
	sc.setReadDeadline(after(sc.since, sc.headerTimeout))
	var idleEnd time.Time
	for kept := false; ; kept = true {
		n, ok := sc.readHeader(kept, idleEnd)
		if n > 0 && !sc.state.CompareAndSwap(connIdle, connActive) && !sc.state.CompareAndSwap(connNew, connActive) {
			return // Shutdown closed it
		}
		if n == 0 {
			if ok {
				handedOff = sc.handOff()
			}
			return
		}
		req, ok := sc.parse(n)
		if !ok {
			handedOff = sc.handOff()
			return
		}
		if !sc.exchange(req) || s.shutdown.Load() {
			return
		}
		sc.state.Store(connIdle)
		// The idle wait keeps the exchange's read deadline when it comes
		// no later than the idle one, and moves it only if it passes
		// first (readHeader).
		idleEnd = after(time.Now(), sc.idleTimeout)
		if idleEnd.IsZero() != sc.readDL.IsZero() || sc.readDL.After(idleEnd) {
			sc.setReadDeadline(idleEnd)
		}
	}
}

// timeouts reads the wrapped server's timeouts as net/http applies
// them: to a header, ReadHeaderTimeout or else ReadTimeout; to an idle
// connection, IdleTimeout or else ReadTimeout. shortest is the least of
// the read, write and idle timeouts that are set.
func (sc *serverConn) timeouts() {
	srv := sc.s.srv
	sc.headerTimeout, sc.idleTimeout = srv.ReadHeaderTimeout, srv.IdleTimeout
	if sc.headerTimeout == 0 {
		sc.headerTimeout = srv.ReadTimeout
	}
	if sc.idleTimeout == 0 {
		sc.idleTimeout = srv.ReadTimeout
	}
	sc.readTimeout, sc.writeTimeout = srv.ReadTimeout, srv.WriteTimeout
	for _, d := range [...]time.Duration{sc.readTimeout, sc.writeTimeout, sc.idleTimeout} {
		if d > 0 && (sc.shortest == 0 || d < sc.shortest) {
			sc.shortest = d
		}
	}
}

// readHeader waits for the next request and returns the length of its
// header block, all of it in sc.br's buffer. 0 means the connection is
// done: ok says whether what it sent goes to the wrapped server (a
// header too large for the reader, or one the client stopped sending
// half way through) or is dropped, as net/http drops an idle connection
// that closed or timed out. A kept-alive connection waits until idleEnd
// (zero: for ever), and its header deadline starts at its first byte;
// a new one's runs from its accept.
func (sc *serverConn) readHeader(kept bool, idleEnd time.Time) (n int, ok bool) {
	br := sc.br
	// net/http reads nothing of a kept-alive connection's next request
	// before it has four bytes of it, and says nothing to one that ends
	// before them.
	ready := !kept
	for partial := false; ; {
		buf, _ := br.Peek(br.Buffered())
		ready = ready || len(buf) >= 4
		if ready {
			if sc.lastMethod == http.MethodPost {
				// Its tolerance of a CRLF after a POST's body.
				sc.lastMethod = ""
				if k := numLeadingCRorLF(buf[:min(len(buf), 4)]); k > 0 {
					_, _ = br.Discard(k) // all buffered
					continue
				}
			}
			if n := headerEnd(buf); n > 0 {
				return n, true
			}
		}
		if len(buf) == br.Size() {
			return 0, true
		}
		if len(buf) > 0 && !partial {
			partial = true
			if kept {
				sc.setReadDeadline(after(time.Now(), sc.headerTimeout))
			}
		}
		_, err := br.Peek(len(buf) + 1)
		if err == nil {
			continue
		}
		var ne net.Error
		timeout := errors.As(err, &ne) && ne.Timeout()
		if len(buf) == 0 && timeout && kept && !idleEnd.IsZero() && time.Now().Before(idleEnd) {
			// The exchange's deadline passed before the idle one.
			sc.setReadDeadline(idleEnd)
			continue
		}
		return 0, ready && len(buf) > 0 && !timeout
	}
}

// numLeadingCRorLF counts the CR and LF bytes v starts with.
func numLeadingCRorLF(v []byte) (n int) {
	for _, b := range v {
		if b == '\r' || b == '\n' {
			n++
			continue
		}
		break
	}
	return n
}

// headerEnd is the length of the header block buf starts with — up to
// and including the empty line textproto ends it at — or 0 when buf
// holds no empty line.
func headerEnd(buf []byte) int {
	for i := 0; ; {
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			return 0
		}
		i += j + 1
		if i < len(buf) && buf[i] == '\n' {
			return i + 1
		}
		if i+1 < len(buf) && buf[i] == '\r' && buf[i+1] == '\n' {
			return i + 2
		}
	}
}

// parse returns the request whose n-byte header block sc.br holds, and
// whether parseHead claimed it: false leaves the bytes in sc.br for the
// wrapped server.
func (sc *serverConn) parse(n int) (*http.Request, bool) {
	if limit := sc.s.srv.MaxHeaderBytes; limit > 0 && n > limit {
		return nil, false
	}
	block, _ := sc.br.Peek(n)
	req := parseHead(block)
	if req == nil {
		return nil, false
	}
	if sc.s.routed != nil {
		sc.s.routed(routeClaimed)
	}
	_, _ = sc.br.Discard(n) // all n are buffered
	sc.lastMethod = req.Method
	req.RemoteAddr = sc.remoteAddr
	req.Body = http.NoBody
	if req.ContentLength > 0 {
		req.Body = &reqBody{sc: sc, n: req.ContentLength}
	}
	return req, true
}

// handOff gives the connection, with what sc.br holds and the byte a
// watcher read, to the wrapped server, and reports whether it took it.
func (sc *serverConn) handOff() bool {
	if sc.s.routed != nil {
		sc.s.routed(routeHandedOff)
	}
	buf, _ := sc.br.Peek(sc.br.Buffered())
	rc := &replayConn{Conn: sc.conn, buf: bytes.Clone(buf)}
	if sc.hasByte {
		rc.buf = append(rc.buf, sc.byteBuf[0])
	}
	select {
	case sc.s.handoff.conns <- rc:
		return true
	case <-sc.s.handoff.done:
		return false
	}
}

// exchange runs the handler on req and writes its reply, and reports
// whether the connection stays open for another request.
func (sc *serverConn) exchange(req *http.Request) (keep bool) {
	s := sc.s
	now := time.Now()
	ctx, cancel := context.WithCancel(sc.ctx)
	req = req.WithContext(ctx)
	w := &response{sc: sc, req: req, handlerHeader: make(http.Header), contentLength: -1,
		wantsClose: req.Close || hasToken(headerGet(req.Header, "Connection"), "close")}
	w.cw.res = w
	w.w = replyWriters.Get().(*bufio.Writer)
	w.w.Reset(&w.cw)
	w.body, _ = req.Body.(*reqBody)

	// One deadline, read and write, for the exchange and the idle wait
	// after it: the shortest timeout set. It is exact when the read and
	// write timeouts are that one; otherwise the watch sets the exact
	// ones if the request outlives the grace, which must then come first.
	switch rd, wd := after(now, sc.readTimeout), after(now, sc.writeTimeout); {
	case sc.shortest >= hangUpGrace:
		sc.setDeadline(now.Add(sc.shortest))
	case rd.Equal(wd):
		sc.setDeadline(rd)
	default:
		sc.setReadDeadline(rd)
		sc.setWriteDeadline(wd)
	}

	sc.mu.Lock()
	sc.cancel, sc.start, sc.bodyDone, sc.setRead, sc.setWrite = cancel, now, w.body == nil, false, false
	sc.watch = watchArmed
	if sc.timer == nil {
		sc.timer = time.AfterFunc(hangUpGrace, sc.graceOver)
	} else {
		sc.timer.Reset(hangUpGrace)
	}
	sc.mu.Unlock()

	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				s.logf("http: panic serving %v: %v\n%s", sc.remoteAddr, v, buf)
			}
			cancel()
			sc.stopWatch()
			if w.body != nil {
				_ = w.body.Close() // the connection closes; nothing is left to keep in step
			}
			sc.flush()
			keep = false
		}
	}()
	handler := s.srv.Handler
	if handler == nil {
		handler = http.DefaultServeMux
	}
	handler.ServeHTTP(w, req)
	cancel()
	w.finish()
	return w.shouldReuseConnection()
}

// setDeadline sets both deadlines to t.
func (sc *serverConn) setDeadline(t time.Time) {
	if !t.Equal(sc.readDL) || !t.Equal(sc.writeDL) {
		sc.readDL, sc.writeDL = t, t
		_ = sc.conn.SetDeadline(t) // as setReadDeadline
	}
}

// graceOver runs on the timer's goroutine when a request has run for
// hangUpGrace: it sets the request's exact deadlines and, once the body
// is read, becomes the watcher.
func (sc *serverConn) graceOver() {
	sc.mu.Lock()
	if sc.watch != watchArmed {
		sc.mu.Unlock()
		return
	}
	if left := hangUpGrace - time.Since(sc.start); left > 0 {
		// Fired for the request before, which ended as it did.
		sc.timer.Reset(left)
		sc.mu.Unlock()
		return
	}
	sc.watch = watchWatching
	if !sc.setRead {
		sc.setReadDeadline(after(sc.start, sc.readTimeout))
	}
	if !sc.setWrite {
		sc.setWriteDeadline(after(sc.start, sc.writeTimeout))
	}
	if !sc.bodyDone {
		sc.mu.Unlock()
		return
	}
	sc.reading = true
	sc.mu.Unlock()
	sc.watchRead()
}

// bodyEnded is called when the request's body has been read to its end:
// past the grace, the watch starts.
func (sc *serverConn) bodyEnded() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.bodyDone = true
	if sc.watch == watchWatching && !sc.reading {
		sc.reading = true
		go sc.watchRead()
	}
}

// watchRead reads a byte: the next request's first, which is kept, or
// the end of a client that hung up, which cancels the request.
func (sc *serverConn) watchRead() {
	n, err := sc.conn.Read(sc.byteBuf[:])
	sc.mu.Lock()
	if n == 1 {
		sc.hasByte = true
	}
	var ne net.Error
	if err != nil && !(sc.aborted && errors.As(err, &ne) && ne.Timeout()) {
		sc.cancel()
	}
	sc.reading = false
	sc.mu.Unlock()
	sc.cond.Broadcast()
}

// stopWatch ends the request's watch: the timer is stopped or a watcher
// read cut short, which leaves the read deadline at the idle one.
func (sc *serverConn) stopWatch() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	armed := sc.watch == watchArmed
	sc.watch = watchOff
	if armed {
		sc.timer.Stop()
		return
	}
	if sc.reading {
		sc.aborted = true
		sc.readDL = aLongTimeAgo
		_ = sc.conn.SetReadDeadline(aLongTimeAgo) // as setReadDeadline
		for sc.reading {
			sc.cond.Wait()
		}
		sc.aborted = false
		sc.setReadDeadline(after(time.Now(), sc.idleTimeout))
	}
}

// reqBody is a request body of declared length, read from the
// connection's reader as net/http's server reads one.
type reqBody struct {
	sc *serverConn

	mu                        sync.Mutex
	n                         int64 // bytes not yet read
	sawEOF, closed, earlyDone bool
}

func (b *reqBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.readLocked(p)
}

func (b *reqBody) readLocked(p []byte) (n int, err error) {
	if b.sawEOF {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err = b.sc.br.Read(p)
	b.n -= int64(n)
	if err == io.EOF {
		b.sawEOF = true
		if b.n > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == nil && b.n == 0 {
		err = io.EOF
		b.sawEOF = true
	}
	if b.sawEOF {
		b.sc.bodyEnded()
	}
	return n, err
}

// Close reads up to maxPostHandlerReadBytes of what is left, to keep
// the connection, or gives up on it.
func (b *reqBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	var err error
	switch {
	case b.sawEOF:
	case b.n > maxPostHandlerReadBytes:
		b.earlyDone = true
	default:
		var n int64
		n, err = io.CopyN(io.Discard, bodyLocked{b}, maxPostHandlerReadBytes)
		if err == io.EOF {
			err = nil
		}
		if n == maxPostHandlerReadBytes {
			b.earlyDone = true
		}
	}
	b.closed = true
	return err
}

type bodyLocked struct{ b *reqBody }

func (bl bodyLocked) Read(p []byte) (int, error) {
	if bl.b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return bl.b.readLocked(p)
}

// response is the http.ResponseWriter of one exchange. Its writes go
// through w (replyBufferSize bytes) to cw, which writes the header and
// the chunk framing to the connection's pooled writer: net/http's
// layout, so that a reply's framing is net/http's byte for byte.
type response struct {
	sc   *serverConn
	req  *http.Request
	body *reqBody // nil when the request has none

	handlerHeader http.Header
	header        http.Header // handlerHeader as of WriteHeader, once the handler could change it after
	calledHeader  bool
	wroteHeader   bool // a final status is (logically) written
	status        int
	written       int64
	contentLength int64 // declared, or -1

	handlerDone, wantsClose, closeAfterReply, fullDuplex, bodyLimitHit bool
	trailers                                                           []string

	w  *bufio.Writer
	cw chunkWriter
}

type chunkWriter struct {
	res         *response
	wroteHeader bool // on the connection's writer
	chunking    bool
}

func (w *response) Header() http.Header {
	if w.header == nil && w.wroteHeader && !w.cw.wroteHeader {
		w.header = w.handlerHeader.Clone()
	}
	w.calledHeader = true
	return w.handlerHeader
}

func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		w.sc.s.logf("http: superfluous response.WriteHeader call")
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if code >= 100 && code <= 199 && code != http.StatusSwitchingProtocols {
		bw := w.sc.writer()
		writeStatusLine(bw, code)
		_ = w.handlerHeader.WriteSubset(bw, excludedHeadersNoBody) // a failure is in sc.werr
		_, _ = bw.WriteString("\r\n")
		_ = bw.Flush()
		return
	}
	w.wroteHeader = true
	w.status = code
	if w.calledHeader && w.header == nil {
		w.header = w.handlerHeader.Clone()
	}
	if cl := headerGet(w.handlerHeader, "Content-Length"); cl != "" {
		v, err := strconv.ParseInt(cl, 10, 64)
		if err == nil && v >= 0 {
			w.contentLength = v
		} else {
			w.sc.s.logf("http: invalid Content-Length of %q", cl)
			w.handlerHeader.Del("Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) { return w.write(len(p), p, "") }

func (w *response) WriteString(s string) (int, error) { return w.write(len(s), nil, s) }

func (w *response) write(n int, p []byte, s string) (int, error) {
	if w.w == nil {
		return 0, http.ErrHandlerTimeout // the exchange is over
	}
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if n == 0 {
		return 0, nil
	}
	if !bodyAllowedForStatus(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(n)
	if w.contentLength != -1 && w.written > w.contentLength {
		return 0, http.ErrContentLength
	}
	if p != nil {
		return w.w.Write(p)
	}
	return w.w.WriteString(s)
}

// writerOnly hides a response's ReadFrom from io.CopyBuffer.
type writerOnly struct{ io.Writer }

// ReadFrom is net/http's: the first 512 bytes go through Write, for
// sniffing, then the header is sent and the rest copied; a body of
// declared length is copied without the Write's length check.
func (w *response) ReadFrom(src io.Reader) (n int64, err error) {
	buf := CopyBuffers.Get()
	defer CopyBuffers.Put(buf)
	if w.w == nil {
		return io.CopyBuffer(writerOnly{w}, src, buf)
	}
	if !w.cw.wroteHeader {
		n0, err := io.CopyBuffer(writerOnly{w}, io.LimitReader(src, 512), buf)
		n += n0
		if err != nil || n0 < 512 {
			return n, err
		}
	}
	_ = w.w.Flush()  // a failure is in sc.werr
	_ = w.cw.flush() // as above
	if !w.cw.chunking && bodyAllowedForStatus(w.status) && w.req.Method != http.MethodHead {
		n0, err := io.CopyBuffer(writerOnly{w.sc.writer()}, src, buf)
		n += n0
		w.written += n0
		return n, err
	}
	n0, err := io.CopyBuffer(writerOnly{w}, src, buf)
	return n + n0, err
}

func (w *response) Flush() { _ = w.FlushError() }

//paslint:allow unused http.ResponseController calls it through an interface
func (w *response) FlushError() error {
	if w.w == nil {
		return http.ErrHandlerTimeout
	}
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	err := w.w.Flush()
	if e2 := w.cw.flush(); err == nil {
		err = e2
	}
	return err
}

// SetReadDeadline and SetWriteDeadline are what http.ResponseController
// calls; the deadline a handler sets is not moved by the watch.
func (w *response) SetReadDeadline(t time.Time) error {
	sc := w.sc
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.setRead = true
	sc.readDL = t
	return sc.conn.SetReadDeadline(t)
}

func (w *response) SetWriteDeadline(t time.Time) error {
	sc := w.sc
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.setWrite = true
	sc.writeDL = t
	return sc.conn.SetWriteDeadline(t)
}

//paslint:allow unused http.ResponseController calls it through an interface
func (w *response) EnableFullDuplex() error {
	w.fullDuplex = true
	return nil
}

// finish ends the exchange as net/http's finishRequest does: the reply
// is completed and written out, the watch stopped, and the body closed.
func (w *response) finish() {
	w.handlerDone = true
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	_ = w.w.Flush() // a failure is in sc.werr
	w.w.Reset(nil)
	replyWriters.Put(w.w)
	w.w = nil
	w.cw.close()
	w.sc.flush()
	w.sc.stopWatch()
	if w.body != nil {
		_ = w.body.Close() // a failure leaves earlyDone or the discard's error, read below
	}
}

// shouldReuseConnection is net/http's rule, after the handler. A
// connection with request bytes left unread is half-closed first.
func (w *response) shouldReuseConnection() bool {
	b, ok := w.req.Body.(*reqBody)
	early := ok && b.didEarlyClose()
	if w.closeAfterReply || w.sc.werr != nil || early ||
		w.req.Method != http.MethodHead && w.contentLength != -1 && bodyAllowedForStatus(w.status) && w.contentLength != w.written {
		if early || w.bodyLimitHit {
			w.sc.closeWriteAndWait()
		}
		return false
	}
	return true
}

func (b *reqBody) didEarlyClose() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.earlyDone
}

// closeWriteAndWait sends a FIN and waits, as net/http does before it
// closes a connection with request bytes still unread, so that the
// client reads the reply before the reset.
func (sc *serverConn) closeWriteAndWait() {
	if cw, ok := sc.conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite() // the connection closes next either way
	}
	time.Sleep(500 * time.Millisecond)
}

func (cw *chunkWriter) Write(p []byte) (n int, err error) {
	w := cw.res
	if !cw.wroteHeader {
		cw.writeHeader(p)
	}
	if w.req.Method == http.MethodHead {
		return len(p), nil
	}
	bw := w.sc.writer()
	if cw.chunking {
		var hex [16]byte
		_, err = bw.Write(append(strconv.AppendInt(hex[:0], int64(len(p)), 16), '\r', '\n'))
		if err != nil {
			_ = w.sc.conn.Close() // net/http gives up on the connection
			return 0, err
		}
	}
	n, err = bw.Write(p)
	if cw.chunking && err == nil {
		_, err = bw.WriteString("\r\n")
	}
	if err != nil {
		_ = w.sc.conn.Close() // as above
	}
	return n, err
}

func (cw *chunkWriter) flush() error {
	if !cw.wroteHeader {
		cw.writeHeader(nil)
	}
	return cw.res.sc.writer().Flush()
}

func (cw *chunkWriter) close() {
	if !cw.wroteHeader {
		cw.writeHeader(nil)
	}
	if cw.chunking {
		bw := cw.res.sc.writer()
		_, _ = bw.WriteString("0\r\n") // a failure is in sc.werr
		if trailers := cw.res.finalTrailers(); trailers != nil {
			_ = trailers.Write(bw) // as above
		}
		_, _ = bw.WriteString("\r\n")
	}
}

func (w *response) finalTrailers() http.Header {
	var t http.Header
	for k, vv := range w.handlerHeader {
		if kk, found := strings.CutPrefix(k, http.TrailerPrefix); found {
			if t == nil {
				t = make(http.Header)
			}
			t[kk] = vv
		}
	}
	for _, k := range w.trailers {
		if t == nil {
			t = make(http.Header)
		}
		for _, v := range w.handlerHeader[k] {
			t.Add(k, v)
		}
	}
	return t
}

// badTrailer are the header names a trailer may not carry (RFC 7230
// section 4.1.2), as net/http lists them.
var badTrailer = map[string]bool{
	"Authorization": true, "Cache-Control": true, "Connection": true, "Content-Encoding": true,
	"Content-Length": true, "Content-Range": true, "Content-Type": true, "Expect": true, "Host": true,
	"Keep-Alive": true, "Max-Forwards": true, "Pragma": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Proxy-Connection": true, "Range": true, "Realm": true, "Te": true,
	"Trailer": true, "Transfer-Encoding": true, "Www-Authenticate": true,
}

func (w *response) declareTrailer(k string) {
	k = http.CanonicalHeaderKey(k)
	if strings.HasPrefix(k, "If-") || badTrailer[k] {
		return
	}
	w.trailers = append(w.trailers, k)
}

var (
	excludedHeadersNoBody   = map[string]bool{"Content-Length": true, "Transfer-Encoding": true}
	suppressedHeaders304    = []string{"Content-Type", "Content-Length", "Transfer-Encoding"}
	suppressedHeadersNoBody = []string{"Content-Length", "Transfer-Encoding"}
)

func bodyAllowedForStatus(status int) bool {
	return !(status >= 100 && status <= 199 || status == http.StatusNoContent || status == http.StatusNotModified)
}

// headerGet is Header.Get for a key already in canonical form.
func headerGet(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

func writeStatusLine(bw *bufio.Writer, code int) {
	_, _ = bw.WriteString("HTTP/1.1 ") // a failure is in sc.werr, as below
	if text := http.StatusText(code); text != "" {
		var b [3]byte
		_, _ = bw.Write(strconv.AppendInt(b[:0], int64(code), 10))
		_ = bw.WriteByte(' ')
		_, _ = bw.WriteString(text)
		_, _ = bw.WriteString("\r\n")
	} else {
		_, _ = fmt.Fprintf(bw, "%03d status code %d\r\n", code, code)
	}
}

// writeHeader is net/http's chunkWriter.writeHeader for an HTTP/1.1
// request: it settles the reply's header, framing and connection, and
// writes the header to the connection's writer. p is the start of the
// body, which it sniffs and, when the handler is done, measures.
func (cw *chunkWriter) writeHeader(p []byte) {
	cw.wroteHeader = true
	w := cw.res
	keepAlives := !w.sc.s.shutdown.Load()
	isHEAD := w.req.Method == http.MethodHead

	header := w.header
	owned := header != nil
	if !owned {
		header = w.handlerHeader
	}
	var exclude map[string]bool
	del := func(key string) {
		if owned {
			header.Del(key)
			return
		}
		if _, ok := header[key]; !ok {
			return
		}
		if exclude == nil {
			exclude = make(map[string]bool)
		}
		exclude[key] = true
	}
	var extra extraHeader

	trailers := false
	for k := range w.header {
		if strings.HasPrefix(k, http.TrailerPrefix) {
			if exclude == nil {
				exclude = make(map[string]bool)
			}
			exclude[k] = true
			trailers = true
		}
	}
	for _, v := range w.header["Trailer"] {
		trailers = true
		foreachHeaderElement(v, w.declareTrailer)
	}

	te := headerGet(header, "Transfer-Encoding")
	hasTE := te != ""
	if w.handlerDone && !trailers && !hasTE && bodyAllowedForStatus(w.status) && len(header["Content-Length"]) == 0 && (!isHEAD || len(p) > 0) {
		w.contentLength = int64(len(p))
		extra.contentLength = strconv.AppendInt(extra.clBuf[:0], int64(len(p)), 10)
	}
	hasCL := w.contentLength != -1
	if w.wantsClose || headerGet(header, "Connection") == "close" || !keepAlives {
		w.closeAfterReply = true
	}

	if w.req.ContentLength != 0 && !w.closeAfterReply && !w.fullDuplex {
		var discard, tooBig bool
		if b, ok := w.req.Body.(*reqBody); ok {
			b.mu.Lock()
			switch {
			case b.closed:
				if !b.sawEOF {
					w.closeAfterReply = true
				}
			case b.n >= maxPostHandlerReadBytes:
				tooBig = true
			default:
				discard = true
			}
			b.mu.Unlock()
		} else {
			discard = w.body != nil // a handler's own body: the request's is read past it
		}
		if discard {
			_, err := io.CopyN(io.Discard, w.body, maxPostHandlerReadBytes+1)
			switch err {
			case nil:
				tooBig = true
			case http.ErrBodyReadAfterClose:
			case io.EOF:
				if w.body.Close() != nil {
					w.closeAfterReply = true
				}
			default:
				w.closeAfterReply = true
			}
		}
		if tooBig {
			w.closeAfterReply, w.bodyLimitHit = true, true
			del("Connection")
			extra.connection = "close"
		}
	}

	code := w.status
	if bodyAllowedForStatus(code) {
		_, haveType := header["Content-Type"]
		if ce := header.Get("Content-Encoding"); ce == "" && !haveType && !hasTE && len(p) > 0 {
			extra.contentType = http.DetectContentType(p)
		}
	} else {
		suppressed := suppressedHeadersNoBody
		if code == http.StatusNotModified {
			suppressed = suppressedHeaders304
		}
		for _, k := range suppressed {
			del(k)
		}
	}
	if len(header["Date"]) == 0 {
		extra.date = appendDate(extra.dateBuf[:0])
	}
	if hasCL && hasTE && te != "identity" {
		w.sc.s.logf("http: WriteHeader called with both Transfer-Encoding of %q and a Content-Length of %d", te, w.contentLength)
		del("Content-Length")
		hasCL = false
	}
	switch {
	case isHEAD || !bodyAllowedForStatus(code):
		del("Transfer-Encoding")
	case hasCL:
		del("Transfer-Encoding")
	case hasTE && te == "identity":
		w.closeAfterReply = true
		del("Transfer-Encoding")
	default:
		cw.chunking = true
		extra.transferEncoding = "chunked"
		if hasTE && te == "chunked" {
			del("Transfer-Encoding")
		}
	}
	if cw.chunking {
		del("Content-Length")
	}
	if w.closeAfterReply && (!keepAlives || !hasToken(headerGet(w.header, "Connection"), "close")) && !isProtocolSwitch(code, header) {
		del("Connection")
		extra.connection = "close"
	}

	bw := w.sc.writer()
	writeStatusLine(bw, code)
	_ = w.header.WriteSubset(bw, exclude) // a failure is in sc.werr, as below
	extra.write(bw)
	_, _ = bw.WriteString("\r\n")
}

func isProtocolSwitch(code int, h http.Header) bool {
	return code == http.StatusSwitchingProtocols && h.Get("Upgrade") != "" && containsToken(h["Connection"], "Upgrade")
}

// foreachHeaderElement calls fn for each non-empty element of the
// comma-separated v.
func foreachHeaderElement(v string, fn func(string)) {
	for _, f := range strings.Split(v, ",") {
		if f = strings.Trim(f, " \t\r\n"); f != "" {
			fn(f)
		}
	}
}

// extraHeader is what writeHeader adds to the handler's header, written
// in net/http's order after it.
type extraHeader struct {
	contentType, connection, transferEncoding string
	date, contentLength                       []byte
	dateBuf                                   [len(http.TimeFormat)]byte
	clBuf                                     [20]byte
}

func (h *extraHeader) write(bw *bufio.Writer) {
	// A failure is in sc.werr.
	if h.date != nil {
		_, _ = bw.WriteString("Date: ")
		_, _ = bw.Write(h.date)
		_, _ = bw.WriteString("\r\n")
	}
	if h.contentLength != nil {
		_, _ = bw.WriteString("Content-Length: ")
		_, _ = bw.Write(h.contentLength)
		_, _ = bw.WriteString("\r\n")
	}
	for i, v := range [...]string{h.contentType, h.connection, h.transferEncoding} {
		if v != "" {
			_, _ = bw.WriteString([...]string{"Content-Type: ", "Connection: ", "Transfer-Encoding: "}[i])
			_, _ = bw.WriteString(v)
			_, _ = bw.WriteString("\r\n")
		}
	}
}

// date is the Date header of the current second, formatted once per
// second rather than once per reply.
var date atomic.Pointer[dateValue]

type dateValue struct {
	sec int64
	b   []byte
}

func appendDate(dst []byte) []byte {
	now := time.Now()
	d := date.Load()
	if d == nil || d.sec != now.Unix() {
		d = &dateValue{sec: now.Unix(), b: now.UTC().AppendFormat(nil, http.TimeFormat)}
		date.Store(d)
	}
	return append(dst, d.b...)
}
