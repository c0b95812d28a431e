package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// stubReply is what the stub upstream answers every chat completion
// with: the smallest well-formed reply, so the upstream costs as close
// to nothing as an HTTP exchange can.
const stubReply = `{"id":"stub","object":"chat.completion","choices":[{"index":0,"message":{"role":"assistant","content":"ok"},"finish_reason":"stop"}]}`

// stub is the chat-completions upstream the proxies front. It lives in
// the generator process, so it can look the original request up by id
// and judge what the proxy forwarded.
type stub struct {
	url  string
	srv  *http.Server
	done chan struct{}
	in   atomic.Pointer[inputs]   // the running workload's inputs
	memo atomic.Pointer[memo]     // complement determinism across requests
	rec  atomic.Pointer[recorder] // set during a traced run
}

func startStub() (*stub, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stub{url: "http://" + l.Addr().String(), done: make(chan struct{})}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.serve), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l) // returns ErrServerClosed on close
	}()
	return s, nil
}

func (s *stub) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // graceful shutdown timed out; cut the connections
	}
	<-s.done
}

// use points the stub at a workload's inputs and a fresh memo.
func (s *stub) use(in *inputs, m *memo) {
	s.in.Store(in)
	s.memo.Store(m)
}

func (s *stub) serve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	verdict := "ok"
	switch {
	case err != nil:
		verdict = "stub could not read the body: " + err.Error()
	case r.Header.Get(hdrDirect) == "":
		verdict = s.judge(r.Header.Get(hdrID), body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(hdrOracle, verdict)
	_, _ = io.WriteString(w, stubReply) // a client that left is its own failure
	if rec := s.rec.Load(); rec != nil {
		seq, _ := strconv.Atoi(r.Header.Get(hdrSeq))
		rec.add(seq, layerStub, start, time.Now())
	}
}

func (s *stub) judge(idHeader string, body []byte) string {
	in := s.in.Load()
	id, err := strconv.Atoi(idHeader)
	if in == nil || err != nil {
		return "request reached the upstream without its " + hdrID + " header"
	}
	orig, ok := in.original(id)
	if !ok {
		return "unknown request id " + idHeader
	}
	complement, err := checkChat(orig, body)
	if err != nil {
		return err.Error()
	}
	if err := s.memo.Load().check(id, complement); err != nil {
		return err.Error()
	}
	return "ok"
}
