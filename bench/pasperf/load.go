package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Header names the generator adds. The daemons do not know them; the
// reverse proxy forwards them to the stub upstream like any other.
const (
	hdrID     = "X-Pasperf-Id"     // request id, for the stub's oracle
	hdrSeq    = "X-Pasperf-Seq"    // per-run sequence number, joins a request's spans
	hdrOracle = "X-Pasperf-Oracle" // the stub's verdict on what it received
	hdrDirect = "X-Pasperf-Direct" // generator -> stub floor measurement, no oracle
)

// clientCount is the closed loop's width: callers of a chat API wait
// for the reply, and more clients than cores would measure the run
// queue of this box.
func clientCount() int { return min(runtime.NumCPU(), 2) }

// counts is requests sent / succeeded / failed / degraded in a phase.
type counts struct {
	Sent      int64 `json:"sent"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Degraded  int64 `json:"degraded"`
}

func (c *counts) add(o counts) {
	c.Sent += o.Sent
	c.Succeeded += o.Succeeded
	c.Failed += o.Failed
	c.Degraded += o.Degraded
}

// failures keeps the first few failure messages for the report.
type failures struct {
	mu   sync.Mutex
	msgs []string
}

func (f *failures) note(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// driver sends one workload's requests and judges every reply.
type driver struct {
	in     *inputs
	target string
	memo   *memo
	fails  *failures
	rec    *recorder    // traced in-process runs only
	seq    atomic.Int64 // run-wide sequence numbers a request's spans are joined on
}

// newHTTPClient returns a client that holds exactly one connection:
// each closed-loop client owns one.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// do sends one request and applies the oracle. The latency covers the
// exchange up to the last byte of the reply, not the oracle.
func (d *driver) do(hc *http.Client, r request) (lat time.Duration, c counts) {
	c.Sent = 1
	req, err := http.NewRequest(http.MethodPost, d.target+d.in.path(), bytes.NewReader(r.body))
	if err != nil {
		d.fails.note("building request: %v", err)
		c.Failed = 1
		return 0, c
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hdrID, strconv.Itoa(r.id))
	seq := 0
	if d.rec != nil {
		seq = int(d.seq.Add(1))
		req.Header.Set(hdrSeq, strconv.Itoa(seq))
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		d.fails.note("transport: %v", err)
		c.Failed = 1
		return 0, c
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end; the read's error is the one that counts
	end := time.Now()
	lat = end.Sub(start)
	d.rec.add(seq, layerEdge, start, end)
	if err != nil {
		d.fails.note("reading reply: %v", err)
		c.Failed = 1
		return lat, c
	}
	if resp.StatusCode != http.StatusOK {
		d.fails.note("status %d: %s", resp.StatusCode, clip(string(body)))
		c.Failed = 1
		return lat, c
	}
	switch err := d.judge(r, resp.Header, body); {
	case err == nil:
		c.Succeeded = 1
	case errors.Is(err, errDegraded):
		c.Degraded = 1
	default:
		d.fails.note("oracle, request id %d: %v", r.id, err)
		c.Failed = 1
	}
	return lat, c
}

func (d *driver) judge(r request, h http.Header, body []byte) error {
	degraded := h.Get("X-PAS-Degraded")
	if d.in.chat {
		// The stub upstream saw the rewritten payload and judged it; the
		// reverse proxy relays its verdict. No verdict means the request
		// never reached the upstream.
		// A degraded request is forwarded without a complement, which the
		// stub cannot tell from a lost one; the proxy's flag decides.
		if degraded != "" {
			return errDegraded
		}
		if v := h.Get(hdrOracle); v != "ok" {
			if v == "" {
				v = "no verdict from the stub upstream"
			}
			return errors.New(v)
		}
		return nil
	}
	complement, err := checkAugment(d.in.prompt(r.id), body, degraded)
	if err != nil {
		return err
	}
	return d.memo.check(r.id, complement)
}

// prewarm sends the hot set once, on one connection, so that the hot
// workloads run at hit ratio 1.0 from the first timed request.
func (d *driver) prewarm() counts {
	var total counts
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for id := range d.in.hot {
		_, c := d.do(hc, request{id: id, body: d.in.body(id)})
		total.add(c)
	}
	return total
}

// window is what one timed window measured.
type window struct {
	Requests int       `json:"requests"`
	lat      []float64 // microseconds, successes only
	ref      []float64 // microseconds refOp took, every refEvery-th request
}

// refDoc is what refOp decodes and encodes again.
var refDoc = []byte(`{"id":"ref","model":"m","n":3,"tags":["a","b","c"],"usage":{"in":12,"out":34},"text":"the quick brown fox jumps over the lazy dog"}`)

// refEvery is how often a client times refOp: often enough for a
// steady median in a one-second window at the slowest workload's rate,
// seldom enough to cost the loop about one part in a hundred.
const refEvery = 4

// refOp is the benchmark's speed reference: a fixed piece of work from
// the standard library alone — decode a small JSON document and encode
// it again, branchy and allocating like a request handler — timed by
// the wall clock. This box slows down and speeds up by a third within a
// run (a neighbour on the memory system: an arithmetic loop does not
// feel it, this does), and the median of refOp over a window moves in
// step with the median latency of the same window. It returns
// microseconds.
func refOp() float64 {
	start := time.Now()
	var v map[string]any
	if err := json.Unmarshal(refDoc, &v); err != nil {
		panic(err) // a constant, valid document
	}
	b, err := json.Marshal(v)
	if err != nil || len(b) == 0 {
		panic(err) // what was just decoded encodes
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// loadResult is one closed-loop run: warm-up, then the timed windows.
type loadResult struct {
	warmup  counts
	timed   counts
	windows []window
	// starts[i] and ends[i] bracket window i. The load pauses between
	// windows, so both are taken with the daemons idle.
	starts, ends []mark
}

// mark is a reading of the clocks the per-window rates are taken from.
type mark struct {
	at        time.Time
	seq       int                // last sequence number handed out so far
	daemonCPU map[string]float64 // microseconds by daemon kind
	selfCPU   float64
	steal     float64
}

// runLoad drives the closed loop: every client sends its next request
// only after the previous reply, on its own connection, for the warm-up
// and then for each window. Between windows the clients pause and the
// coordinator reads the clocks (takeMark). A request belongs to the
// window it was sent in; a window lasts until its last reply.
func (d *driver) runLoad(clients int, warm, windowLen time.Duration, windows int, takeMark func() (mark, error)) (*loadResult, error) {
	type clientOut struct {
		warmup, timed counts
		lat           [][]float64
		ref           [][]float64
		n             []int
	}
	type phase struct {
		window int // -1 is the warm-up
		until  time.Time
	}
	outs := make([]clientOut, clients)
	cmds := make([]chan phase, clients)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cmds[c] = make(chan phase)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([][]float64, windows)
			out.ref = make([][]float64, windows)
			out.n = make([]int, windows)
			st := d.in.stream(c, clients)
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			for ph := range cmds[c] {
				for time.Now().Before(ph.until) {
					lat, cnt := d.do(hc, st.nextRequest())
					if ph.window < 0 {
						out.warmup.add(cnt)
						continue
					}
					out.timed.add(cnt)
					out.n[ph.window]++
					if out.n[ph.window]%refEvery == 0 {
						out.ref[ph.window] = append(out.ref[ph.window], refOp())
					}
					if cnt.Succeeded == 1 {
						out.lat[ph.window] = append(out.lat[ph.window], float64(lat.Nanoseconds())/1e3)
					}
				}
				done <- struct{}{}
			}
		}(c)
	}
	run := func(window int, length time.Duration) {
		ph := phase{window: window, until: time.Now().Add(length)}
		for _, ch := range cmds {
			ch <- ph
		}
		for range cmds {
			<-done
		}
	}
	res := &loadResult{windows: make([]window, windows)}
	var markErr error
	take := func() mark {
		m, err := takeMark()
		if err != nil && markErr == nil {
			markErr = err
		}
		m.at, m.seq = time.Now(), int(d.seq.Load())
		return m
	}
	run(-1, warm)
	for w := 0; w < windows; w++ {
		res.starts = append(res.starts, take())
		run(w, windowLen)
		res.ends = append(res.ends, take())
	}
	for _, ch := range cmds {
		close(ch)
	}
	wg.Wait()
	if markErr != nil {
		return nil, markErr
	}
	for c := range outs {
		res.warmup.add(outs[c].warmup)
		res.timed.add(outs[c].timed)
		for w := range res.windows {
			res.windows[w].Requests += outs[c].n[w]
			res.windows[w].lat = append(res.windows[w].lat, outs[c].lat[w]...)
			res.windows[w].ref = append(res.windows[w].ref, outs[c].ref[w]...)
		}
	}
	return res, nil
}
