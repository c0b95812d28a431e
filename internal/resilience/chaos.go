package resilience

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ChaosStep is one scripted behaviour of a ChaosTransport. The zero
// value passes the request through untouched.
type ChaosStep struct {
	// Drop severs the connection: the round trip returns a transport
	// error without reaching http.DefaultTransport.
	Drop bool
	// Status synthesises a response with this code instead of calling
	// http.DefaultTransport; 0 passes through.
	Status int
	// RetryAfter, when non-zero, is sent as a Retry-After header
	// (whole seconds) on the synthesised response.
	RetryAfter time.Duration
	// Body is the synthesised response body; default is a JSON error
	// envelope matching the chat-API error shape.
	Body string
	// Delay is added before the outcome (synthetic or passthrough).
	Delay time.Duration
	// BodyLatency makes the response body slow: each Read stalls this
	// long before yielding, simulating a server that accepts fast but
	// trickles bytes.
	BodyLatency time.Duration
}

// ChaosTransport is an http.RoundTripper that replays a scripted fault
// sequence: request n consumes Script[n]; requests past the end pass
// through to http.DefaultTransport. It makes client-side retry/breaker behaviour
// testable without timing races — drops, 429 bursts with Retry-After,
// 500 storms, and slow bodies all become deterministic.
type ChaosTransport struct {
	// Script is the fault sequence, consumed one step per request.
	Script []ChaosStep

	mu    sync.Mutex
	i     int
	calls int64
}

// Calls reports how many requests reached the transport.
func (t *ChaosTransport) Calls() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls
}

func (t *ChaosTransport) next() (ChaosStep, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if t.i < len(t.Script) {
		step := t.Script[t.i]
		t.i++
		return step, true
	}
	return ChaosStep{}, false
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	step, scripted := t.next()
	if scripted && step.Delay > 0 {
		if err := SleepContext(req.Context(), step.Delay); err != nil {
			return nil, err
		}
	}
	if scripted && step.Drop {
		return nil, fmt.Errorf("chaos: connection dropped")
	}
	if scripted && step.Status != 0 {
		body := step.Body
		if body == "" {
			body = fmt.Sprintf(`{"error":{"message":"chaos status %d","type":"chaos"}}`, step.Status)
		}
		resp := &http.Response{
			StatusCode: step.Status,
			Status:     http.StatusText(step.Status),
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
			Body:       io.NopCloser(bytes.NewReader([]byte(body))),
			Request:    req,
		}
		resp.Header.Set("Content-Type", "application/json")
		if step.RetryAfter > 0 {
			secs := int(step.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1 // the header carries whole seconds
			}
			resp.Header.Set("Retry-After", strconv.Itoa(secs))
		}
		if step.BodyLatency > 0 {
			resp.Body = io.NopCloser(&slowReader{r: resp.Body, perRead: step.BodyLatency})
		}
		return resp, nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && scripted && step.BodyLatency > 0 {
		resp.Body = &slowBody{ReadCloser: resp.Body, perRead: step.BodyLatency}
	}
	return resp, err
}

// slowReader stalls before every Read.
type slowReader struct {
	r       io.Reader
	perRead time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	time.Sleep(s.perRead)
	return s.r.Read(p)
}

// slowBody is slowReader over a passthrough body, keeping Close.
type slowBody struct {
	io.ReadCloser
	perRead time.Duration
}

func (s *slowBody) Read(p []byte) (int, error) {
	time.Sleep(s.perRead)
	return s.ReadCloser.Read(p)
}
