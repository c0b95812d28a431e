package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pas "repro"
	"repro/cmd/internal/daemon"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestServingFlagsAreTheSharedBinders: every serving flag pasproxy
// exposes is cmd/internal/daemon's, name, default and help — the two
// cache flags' help going on to say what they size with -replicas. The
// same test in the other daemon compares against the same binder, so
// the two cannot drift apart.
func TestServingFlagsAreTheSharedBinders(t *testing.T) {
	got := flag.NewFlagSet("pasproxy", flag.ContinueOnError)
	bindFlags(got)
	want := flag.NewFlagSet("daemon", flag.ContinueOnError)
	daemon.Bind(want)
	n := 0
	want.VisitAll(func(w *flag.Flag) {
		n++
		g := got.Lookup(w.Name)
		usage := w.Usage
		if g != nil && (w.Name == "cache-size" || w.Name == "cache-ttl") {
			usage, _, _ = strings.Cut(g.Usage, "; with -replicas: ")
			if !strings.Contains(g.Usage, "; with -replicas: the proxy's near cache") {
				t.Errorf("-%s: help %q does not say what it sizes with -replicas", w.Name, g.Usage)
			}
		}
		if g == nil || g.DefValue != w.DefValue || usage != w.Usage {
			t.Errorf("-%s: pasproxy has %+v, the binder %+v", w.Name, g, w)
		}
	})
	if n != 10 {
		t.Fatalf("the binder declared %d flags, want the 8 serving + 2 observability ones", n)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the daemon declares and serves")

// checkGolden fails unless got is testdata/name; -update rewrites it.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(golden); err != nil || !bytes.Equal(got, want) {
		t.Errorf("%s differs (%v; rerun with -update if the change is meant):\n%s", golden, err, got)
	}
}

// TestHelpGolden: what `pasproxy -h` prints is testdata/help.golden, so a flag
// that appears, disappears or changes its default or wording is a
// one-line diff in review, not a comparison against a build of the
// parent. `go test ./cmd/pasproxy -update` rewrites it.
func TestHelpGolden(t *testing.T) {
	var got bytes.Buffer
	fs := flag.NewFlagSet("pasproxy", flag.ContinueOnError)
	fs.SetOutput(&got)
	bindFlags(fs)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	checkGolden(t, "help.golden", got.Bytes())
}

// surface is what a client reads off a daemon, values aside: the key
// paths of GET /v1/stats (array elements as name[], keys that are URLs
// as name.*) and each GET /metricsz series as name{label,...}, with
// each family's TYPE and HELP, sorted.
func surface(t *testing.T, get func(path string) string) []byte {
	t.Helper()
	var stats any
	if err := json.Unmarshal([]byte(get("/v1/stats")), &stats); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	var lines []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if strings.Contains(k, "://") {
					k = "*"
				}
				walk(path+"."+k, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		default:
			lines = append(lines, "stats "+path[1:])
		}
	}
	walk("", stats)
	fams, err := obs.ParseExposition(strings.NewReader(get("/metricsz")))
	if err != nil {
		t.Fatalf("/metricsz: %v", err)
	}
	for _, f := range fams {
		lines = append(lines, "metricsz "+f.Name+" # TYPE "+f.Type, "metricsz "+f.Name+" # HELP "+f.Help)
		for _, s := range f.Samples {
			var names []string
			for _, l := range s.Labels {
				names = append(names, l.Key)
			}
			slices.Sort(names)
			lines = append(lines, "metricsz "+f.Name+s.Suffix+"{"+strings.Join(names, ",")+"}")
		}
	}
	slices.Sort(lines)
	return []byte(strings.Join(slices.Compact(lines), "\n") + "\n")
}

// startProxy is newHandler over args behind a real listener, in front
// of an upstream that answers every chat 200: pasproxy as it runs, minus
// the process.
func startProxy(t *testing.T, args ...string) *httptest.Server {
	t.Helper()
	return startProxyTo(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}), nil, args...)
}

// startProxyTo is startProxy in front of upstream, with tune, when set,
// applied to the options after o.Start.
func startProxyTo(t *testing.T, upstream http.Handler, tune func(*options), args ...string) *httptest.Server {
	t.Helper()
	up := httptest.NewServer(upstream)
	t.Cleanup(up.Close)
	fs := flag.NewFlagSet("pasproxy", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse(append([]string{"-upstream", up.URL}, args...)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	o.Start(ctx, "pasproxy")
	if tune != nil {
		tune(o)
	}
	h, err := newHandler(ctx, o, fs, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// send asks srv for path as tenant, a POST when body is set, and returns
// the status, the X-PAS-Degraded flag and the body.
func send(t *testing.T, srv *httptest.Server, path, tenant, body string) (code int, flag, reply string) {
	req, _ := http.NewRequest("GET", srv.URL+path, nil)
	if body != "" {
		req, _ = http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
	}
	req.Header.Set("X-PAS-Tenant", tenant)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Error(err)
		return 0, "", ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-PAS-Degraded"), string(b)
}

// getter reads the bodies of srv's paths, for surface.
func getter(t *testing.T, srv *httptest.Server) func(path string) string {
	return func(path string) string { _, _, body := send(t, srv, path, "", ""); return body }
}

// trainedModel trains a small PAS once per test binary and saves it
// for -model under t's own directory.
func trainedModel(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		c := pas.DefaultConfig()
		c.CorpusSize, c.ClassifierExamples = 400, 300
		c.Augment.PerCategoryCap, c.Augment.HeavyCategoryCap = 8, 16
		built, buildErr = pas.Build(c)
	})
	model := filepath.Join(t.TempDir(), "model.json")
	err := buildErr
	if err == nil {
		err = built.System.SaveModel(model)
	}
	if err != nil {
		t.Fatal(err)
	}
	return model
}

var (
	buildOnce sync.Once
	built     *pas.BuildResult
	buildErr  error
)

// augmentReplica is a passerve stand-in that answers an augmentation by
// its prompt: flagged raw when it says "raw", 503 when it says "shed",
// full otherwise.
func augmentReplica(t *testing.T) *httptest.Server {
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := io.ReadAll(r.Body)
		ar, _ := wire.DecodeAugmentRequest(req)
		resp := wire.AugmentResponse{Prompt: ar.Prompt, Augmented: ar.Prompt + "\nBe specific.", Complement: "Be specific."}
		switch {
		case r.URL.Path == "/v1/status":
			_ = json.NewEncoder(w).Encode(wire.Status{Status: wire.StatusOK, Instance: "i"})
			return
		case strings.Contains(ar.Prompt, "shed"):
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		case strings.Contains(ar.Prompt, "raw"):
			resp = wire.AugmentResponse{Prompt: ar.Prompt, Augmented: ar.Prompt, Degraded: true, DegradedLevel: "1"}
			w.Header().Set("X-PAS-Degraded", "1")
		}
		_, _ = w.Write(wire.AppendAugmentResponse(nil, &resp))
	}))
	t.Cleanup(replica.Close)
	return replica
}

func chat(prompt string) string { return `{"messages":[{"role":"user","content":"` + prompt + `"}]}` }

// TestSurfaceGolden: the /v1/stats keys and /metricsz series pasproxy
// shows after one full, one fail-open and one shed chat from two
// tenants are testdata/surface-single.golden (the in-process core) and
// testdata/surface-cluster.golden (-replicas), so a key or a label that
// appears or disappears is a diff in review. `-update` rewrites them.
func TestSurfaceGolden(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		model := trainedModel(t)
		// One slot, no waiting room, fail-closed: a computation asked for
		// while another runs is a 503. A body the proxy cannot read is its
		// fail-open: forwarded as sent, flagged.
		p := startProxy(t, "-model", model, "-degrade=false", "-max-inflight", "1", "-queue-depth", "0", "-compute-delay", "200ms")
		full := make(chan string, 1)
		go func() {
			code, flag, _ := send(t, p, "/v1/chat/completions", "a", chat("Explain how tides form."))
			full <- fmt.Sprint(code, flag)
		}()
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(getter(t, p)("/v1/stats"), `"in_flight":1`); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the first computation never started")
			}
		}
		if code, _, _ := send(t, p, "/v1/chat/completions", "b", chat("Write a haiku about rain.")); code != http.StatusServiceUnavailable {
			t.Fatalf("shed: %d", code)
		}
		if code, flag, _ := send(t, p, "/v1/chat/completions", "b", "{broken"); code != http.StatusOK || flag != "1" {
			t.Fatalf("fail-open: %d %q", code, flag)
		}
		if got := <-full; got != "200" {
			t.Fatalf("full: %s", got)
		}
		checkGolden(t, "surface-single.golden", surface(t, getter(t, p)))
	})
	t.Run("cluster", func(t *testing.T) {
		replica := augmentReplica(t)
		p := startProxy(t, "-replicas", replica.URL, "-degrade=false")
		for _, tc := range []struct{ tenant, prompt, want string }{
			{"a", "Explain how tides form.", "200 "}, {"b", "Answer raw.", "200 1"}, {"b", "Please shed.", "503 "},
		} {
			if code, flag, _ := send(t, p, "/v1/chat/completions", tc.tenant, chat(tc.prompt)); fmt.Sprint(code, " ", flag) != tc.want {
				t.Fatalf("%q: %d %q, want %s", tc.prompt, code, flag, tc.want)
			}
		}
		checkGolden(t, "surface-cluster.golden", surface(t, getter(t, p)))
	})
}

// pinned is the one instant every clock of a golden script reads, so
// every duration it records is 0.
func pinned() time.Time { return time.Unix(1_700_000_000, 0) }

// pinClocks puts the serving core and a new tracer on the pinned clock;
// the tracer takes its ids from a fixed seed and head-samples only the
// first trace, so a golden script's first request is its exposition's
// one exemplar.
func pinClocks(o *options) {
	o.Serving.Now = pinned
	o.Tracer = obs.NewTracer(obs.TraceConfig{SampleEvery: 1 << 30, Now: pinned, IDSeed: 1})
}

// exposition is a /metricsz body without the families that read the
// process rather than the script: runtime, build and uptime.
func exposition(body string) []byte {
	var b strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "pas_runtime_") && !strings.HasPrefix(name, "pas_build_info") &&
			!strings.HasPrefix(name, "pas_process_uptime_seconds") {
			b.WriteString(line)
		}
	}
	return []byte(b.String())
}

// TestMetricszGolden: the whole /metricsz exposition pasproxy serves
// after a fixed script, values and exemplar included, is
// testdata/metricsz-single.golden (the in-process core) and
// testdata/metricsz-cluster.golden (-replicas, with the replica's URL
// written as http://replica). The script sends chats — full, then
// cached, fail-open and shed, as the mode allows — one path the upstream
// answers 404, and other paths until one is past the 64-path cap, in
// "other".
func TestMetricszGolden(t *testing.T) {
	// upstream answers 404 on /v1/missing and 200 everywhere else.
	upstream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/v1/missing" {
			w.WriteHeader(http.StatusNotFound)
		}
	})
	type step struct {
		path, tenant, body, want string
	}
	run := func(t *testing.T, p *httptest.Server, script []step) []byte {
		for _, s := range append(script, step{"/v1/missing", "a", "", "404 "}) {
			if code, flag, _ := send(t, p, s.path, s.tenant, s.body); fmt.Sprint(code, " ", flag) != s.want {
				t.Fatalf("%s %q: %d %q, want %s", s.path, s.body, code, flag, s.want)
			}
		}
		for i := 0; i < 63; i++ { // the 64th distinct path is the last with its own series
			if code, _, _ := send(t, p, fmt.Sprintf("/v1/other/%02d", i), "a", ""); code != http.StatusOK {
				t.Fatalf("/v1/other/%02d: %d", i, code)
			}
		}
		return exposition(getter(t, p)("/metricsz?exemplars=1"))
	}
	t.Run("single", func(t *testing.T) {
		p := startProxyTo(t, upstream, pinClocks, "-model", trainedModel(t))
		checkGolden(t, "metricsz-single.golden", run(t, p, []step{
			{"/v1/chat/completions", "a", chat("Explain how tides form."), "200 "},
			{"/v1/chat/completions", "b", chat("Explain how tides form."), "200 "},
			{"/v1/chat/completions", "b", "{broken", "200 1"},
		}))
	})
	t.Run("cluster", func(t *testing.T) {
		replica := augmentReplica(t)
		p := startProxyTo(t, upstream, pinClocks, "-replicas", replica.URL, "-degrade=false", "-probe-interval", "1h")
		got := run(t, p, []step{
			{"/v1/chat/completions", "a", chat("Explain how tides form."), "200 "},
			{"/v1/chat/completions", "b", chat("Explain how tides form."), "200 "},
			{"/v1/chat/completions", "b", chat("Answer raw."), "200 1"},
			{"/v1/chat/completions", "b", chat("Please shed."), "503 "},
		})
		checkGolden(t, "metricsz-cluster.golden", bytes.ReplaceAll(got, []byte(replica.URL), []byte("http://replica")))
	})
}

// TestClusterModeAccountsForEveryServingFlag: with -replicas a serving
// flag either reaches ring.Config or is in clusterIgnored and named at
// start-up when set, so none is dropped without a word.
func TestClusterModeAccountsForEveryServingFlag(t *testing.T) {
	used := []string{"cache-size", "cache-ttl", "degrade"}
	obsFlags := flag.NewFlagSet("obs", flag.ContinueOnError)
	daemon.BindObs(obsFlags)
	serving := flag.NewFlagSet("daemon", flag.ContinueOnError)
	daemon.Bind(serving)
	n := 0
	serving.VisitAll(func(f *flag.Flag) {
		if obsFlags.Lookup(f.Name) != nil {
			return
		}
		n++
		if slices.Contains(used, f.Name) == slices.Contains(clusterIgnored, f.Name) {
			t.Errorf("-%s: used with -replicas %v, listed as ignored %v", f.Name, slices.Contains(used, f.Name), slices.Contains(clusterIgnored, f.Name))
		}
	})
	if n != len(used)+len(clusterIgnored) {
		t.Fatalf("%d serving flags, %d used + %d ignored", n, len(used), len(clusterIgnored))
	}

	fs := flag.NewFlagSet("pasproxy", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse([]string{"-replicas", "http://a:1", "-max-inflight", "2", "-cache-size", "10", "-queue-depth", "5", "-trace-sample", "4"}); err != nil {
		t.Fatal(err)
	}
	if got := setButIgnored(fs); !slices.Equal(got, []string{"max-inflight", "queue-depth"}) || o.Serving.CacheSize != 10 {
		t.Fatalf("set but ignored = %v, cache size %d; want [max-inflight queue-depth], 10", got, o.Serving.CacheSize)
	}
	// The per-replica breaker's threshold is the proxy's own flag — the
	// serving core has no breaker — at the default the shared binder
	// used to give it; its cooldown is ring.Config's.
	if serving.Lookup("breaker-threshold") != nil || o.breakerThreshold != 8 {
		t.Fatalf("per-replica breaker threshold %d; want pasproxy's own flag, 8", o.breakerThreshold)
	}
}

// suffixAugmenter appends a fixed complement.
type suffixAugmenter struct{}

func (suffixAugmenter) AugmentContextDegraded(_ context.Context, prompt, _ string) (string, bool, error) {
	return prompt + "\nState your assumptions.", false, nil
}

// upstreamBase is the process's http.Transport, which
// tuneUpstreamTransport wraps and which carries https upstreams.
var upstreamBase = http.DefaultTransport.(*http.Transport)

// tuneOnce applies tuneUpstreamTransport to the test process once, as
// main does: called again it would wrap the transport it installed.
var tuneOnce = sync.OnceFunc(tuneUpstreamTransport)

// closeIdle closes the installed transport's idle connections.
func closeIdle() { http.DefaultTransport.(*wire.Transport).CloseIdleConnections() }

// TestProxyReusesUpstreamConnections: the proxy has one upstream host,
// and net/http keeps two idle connections per host unless told
// otherwise, so with more than two clients most requests used to dial.
// After tuneUpstreamTransport eight clients need eight connections.
func TestProxyReusesUpstreamConnections(t *testing.T) {
	tuneOnce()
	defer closeIdle()

	const clients, chats = 8, 25
	// The first chat of every client is held until all eight are in
	// flight, so that eight connections exist before any is handed back: a
	// client that finished while others were still dialling would lend its
	// connection out and have to dial a ninth for itself.
	var opened, arrived atomic.Int64
	allIn := make(chan struct{})
	upstream := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if arrived.Add(1) == clients {
			close(allIn)
		}
		<-allIn
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	upstream.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	upstream.Start()
	defer upstream.Close()
	proxy, err := pas.NewProxyWith(suffixAugmenter{}, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < chats; i++ {
				resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json",
					strings.NewReader(`{"messages":[{"role":"user","content":"Explain how tides form."}]}`))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d clients x %d chats opened %d upstream connections", clients, chats, opened.Load())
	if opened.Load() > clients {
		t.Fatalf("%d upstream connections for %d concurrent clients: idle connections are not being kept", opened.Load(), clients)
	}
}

// longChat is the 14-message, 7 KiB conversation of pasperf's
// proxy_chat workload.
func longChat(t testing.TB) []byte {
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
	return chat
}

// TestForwardedChatAllocatesNoCopyBuffer holds the bytes the whole test
// process allocates per 7 KiB chat sent through the proxy, over the
// daemon's own transport, to a loopback upstream: client, proxy and
// upstream together. Over http.Transport it was 24 KiB, 7 KiB of it a
// copy buffer net/http's TCPConn.ReadFrom made for every body, and 17.5
// KiB once that copy went through the pooled buffers; over wire.Transport
// it is 15.9 KiB (Go 1.24, linux/amd64). TestProxyForwardAllocations, on
// an in-memory transport, never sees the connection.
func TestForwardedChatAllocatesNoCopyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations swamp the figure")
	}
	tuneOnce()
	defer closeIdle()
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer upstream.Close()
	proxy, err := pas.NewProxyWith(suffixAugmenter{}, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()
	chat := longChat(t)
	post := func() {
		resp, err := front.Client().Post(front.URL+"/v1/chat/completions", "application/json", bytes.NewReader(chat))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for i := 0; i < 50; i++ { // connections dialled, pools filled
		post()
	}
	const chats = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < chats; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	perChat := (after.TotalAlloc - before.TotalAlloc) / chats
	t.Logf("%d bytes allocated per forwarded %d-byte chat", perChat, len(chat))
	if perChat > 20<<10 {
		t.Errorf("%d bytes allocated per forwarded chat, want <= 20 KiB: is a copy buffer made per request again?", perChat)
	}
}

// upstreamCase is one body of the socket matrix: what the client sends
// to path, and what the upstream must receive. chunked sends it with no
// declared length, piece by piece.
type upstreamCase struct {
	name, path string
	send, want []byte
	chunked    bool
}

// upstreamCases sends a body of every size around the copy's edges —
// one byte, the 4 KiB of a bufio.Writer, the 32 KiB of a copy buffer,
// past two of them, a megabyte — as a chat the proxy augments and as a
// plain POST with and without a declared length. A chat too short to be
// one is forwarded as it came.
func upstreamCases() []upstreamCase {
	const head, tail = `{"messages":[{"role":"user","content":"`, `"}]}`
	pattern := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	var cases []upstreamCase
	for _, n := range []int{1, 4<<10 - 1, 4 << 10, 4<<10 + 1, 32<<10 - 1, 32 << 10, 32<<10 + 1, 64<<10 + 1, 1 << 20} {
		raw := bytes.Repeat(pattern, n/len(pattern)+1)[:n]
		chat, want := raw, raw
		if n > len(head)+len(tail) {
			text := raw[:n-len(head)-len(tail)]
			chat = []byte(head + string(text) + tail)
			want = []byte(head + string(text) + `\nState your assumptions.` + tail)
		}
		cases = append(cases,
			upstreamCase{fmt.Sprintf("chat/%d", n), "/v1/chat/completions", chat, want, false},
			upstreamCase{fmt.Sprintf("post/%d", n), "/v1/other", raw, raw, false},
			upstreamCase{fmt.Sprintf("chunked/%d", n), "/v1/other", raw, raw, true})
	}
	return cases
}

// sendThroughProxy posts c through a proxy in front of upstream, whose
// handler records what it read into got, and returns that.
func sendThroughProxy(t *testing.T, front *httptest.Server, got *[]byte, c upstreamCase) []byte {
	t.Helper()
	var body io.Reader = bytes.NewReader(c.send)
	if c.chunked {
		// A pipe written in odd pieces: no declared length, and the
		// proxy's reads of the request come back short.
		pr, pw := io.Pipe()
		go func() {
			for rest := c.send; len(rest) > 0; {
				n := min(len(rest), 1000+len(rest)%7)
				if _, err := pw.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
			pw.Close()
		}()
		body = pr
	}
	resp, err := front.Client().Post(front.URL+c.path, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", c.name, resp.StatusCode)
	}
	return *got
}

// upstreams runs fn against a plain and a TLS upstream behind the proxy,
// both reached through the daemon's transport — the plain one by
// wire.Transport itself, the TLS one by the http.Transport it hands
// https to; the upstream's handler stores the body it read in *got.
func upstreams(t *testing.T, fn func(t *testing.T, front *httptest.Server, got *[]byte)) {
	tuneOnce()
	for _, scheme := range []string{"http", "https"} {
		t.Run(scheme, func(t *testing.T) {
			var got []byte
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				b, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				got = b
			})
			var upstream *httptest.Server
			if scheme == "https" {
				upstream = httptest.NewTLSServer(h)
				saved := upstreamBase.TLSClientConfig
				upstreamBase.TLSClientConfig = upstream.Client().Transport.(*http.Transport).TLSClientConfig
				defer func() { upstreamBase.TLSClientConfig = saved }()
			} else {
				upstream = httptest.NewServer(h)
			}
			defer upstream.Close()
			defer closeIdle()
			proxy, err := pas.NewProxyWith(suffixAugmenter{}, upstream.URL)
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(proxy)
			defer front.Close()
			fn(t, front, &got)
		})
	}
}

// TestUpstreamBodiesArriveByteIdentical: whatever copies a body to the
// upstream's connection, the upstream reads exactly the bytes it would
// have read through net/http's own copy, at every size around the
// copy's edges, with and without a declared length, in clear through
// the installed wire.Transport and over TLS through the http.Transport
// it falls back to.
func TestUpstreamBodiesArriveByteIdentical(t *testing.T) {
	upstreams(t, func(t *testing.T, front *httptest.Server, got *[]byte) {
		if _, ok := http.DefaultTransport.(*wire.Transport); !ok {
			t.Fatalf("installed transport is a %T, want *wire.Transport", http.DefaultTransport)
		}
		for _, c := range upstreamCases() {
			if b := sendThroughProxy(t, front, got, c); !bytes.Equal(b, c.want) {
				t.Errorf("%s: upstream read %d bytes, want %d (first difference at %d)", c.name, len(b), len(c.want), firstDiff(b, c.want))
			}
		}
	})
}

// TestUpstreamCopyCarriesNoPooledBytes fills the pooled send writers
// and copy buffers with a marker before every request: a writer or a
// copy that sent more of its buffer than it had just been given, or one
// handed back while still in use, would put the marker on an upstream's
// wire.
func TestUpstreamCopyCarriesNoPooledBytes(t *testing.T) {
	marker := []byte("#POOLED#")
	upstreams(t, func(t *testing.T, front *httptest.Server, got *[]byte) {
		for _, c := range upstreamCases() {
			var writers []*bufio.Writer
			var held [][]byte
			for i := 0; i < 4; i++ {
				bw := wire.Writers.Get(io.Discard)
				for bw.Available() > 0 {
					_, _ = bw.Write(marker[:min(len(marker), bw.Available())])
				}
				writers = append(writers, bw)
				b := wire.CopyBuffers.Get()
				for j := 0; j < len(b); j += copy(b[j:], marker) {
				}
				held = append(held, b)
			}
			for i := range held {
				wire.Writers.Put(writers[i])
				wire.CopyBuffers.Put(held[i])
			}
			if b := sendThroughProxy(t, front, got, c); bytes.Contains(b, marker) || len(b) != len(c.want) {
				t.Errorf("%s: upstream read %d bytes, want %d, marker seen: %v", c.name, len(b), len(c.want), bytes.Contains(b, marker))
			}
		}
	})
}

// TestUpstreamIdleCloseIsNotA502: an upstream that closes a connection
// idle for 50 ms has it dropped before it is used again, and a chat sent
// 100 ms later is answered 200, never 502. Fails if a pooled connection
// is not peeked before it is reused: the chat is written into a
// connection the upstream closed.
func TestUpstreamIdleCloseIsNotA502(t *testing.T) {
	tuneOnce()
	defer closeIdle()
	upstream := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	upstream.Config.IdleTimeout = 50 * time.Millisecond
	upstream.Start()
	defer upstream.Close()
	proxy, err := pas.NewProxyWith(suffixAugmenter{}, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(proxy)
	defer front.Close()
	for i := 0; i < 3; i++ {
		if code, _, body := send(t, front, "/v1/chat/completions", "", chat("Explain how tides form.")); code != http.StatusOK {
			t.Fatalf("chat %d: %d %s", i, code, body)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// firstDiff is the first offset at which a and b differ.
func firstDiff(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// serveClusterProxy is pasproxy's newHandler in -replicas mode, over a
// replica that augments every prompt, in front of upstream, served as
// the daemon serves it (daemon.Serve) or by net/http alone; it returns
// the proxy's address and its access log.
func serveClusterProxy(t *testing.T, upstream string, viaDaemon bool) (addr string, logged *syncBuffer) {
	t.Helper()
	tuneOnce()
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/status" {
			_ = json.NewEncoder(w).Encode(wire.Status{Status: wire.StatusOK, Instance: "i"})
			return
		}
		req, _ := io.ReadAll(r.Body)
		ar, _ := wire.DecodeAugmentRequest(req)
		resp := wire.AugmentResponse{Prompt: ar.Prompt, Augmented: ar.Prompt + "\nBe specific.", Complement: "Be specific."}
		_, _ = w.Write(wire.AppendAugmentResponse(nil, &resp))
	}))
	t.Cleanup(replica.Close)
	fs := flag.NewFlagSet("pasproxy", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse([]string{"-upstream", upstream, "-replicas", replica.URL}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	o.Start(ctx, "pasproxy")
	logged = &syncBuffer{}
	h, err := newHandler(ctx, o, fs, log.New(logged, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !viaDaemon {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.Listener.Addr().String(), logged
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := daemon.Serve(&http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}, ln)
	t.Cleanup(func() { _ = ws.Shutdown(context.Background()) })
	return ln.Addr().String(), logged
}

// syncBuffer is a log sink the handler's goroutine writes while the test
// reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// servers runs fn with the proxy served by net/http and by the daemon's
// server.
func servers(t *testing.T, fn func(t *testing.T, viaDaemon bool)) {
	for _, via := range []struct {
		name   string
		daemon bool
	}{{"net/http", false}, {"daemon", true}} {
		t.Run(via.name, func(t *testing.T) { fn(t, via.daemon) })
	}
}

// TestUpstreamDyingMidBodyCutsTheReply: an upstream that sends one SSE
// event and drops the connection makes the reverse proxy abort the
// reply, and the client must see it cut short — a read error — not a
// clean 200 whose body ends in a 500 envelope. Fails if httpmw.Recover
// answers http.ErrAbortHandler, or any panic after the reply started,
// with its envelope.
func TestUpstreamDyingMidBodyCutsTheReply(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = io.WriteString(w, "data: first\n\n")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // the connection drops mid-body
	}))
	defer upstream.Close()
	upstream.Config.ErrorLog = log.New(io.Discard, "", 0)
	servers(t, func(t *testing.T, viaDaemon bool) {
		addr, _ := serveClusterProxy(t, upstream.URL, viaDaemon)
		resp, err := http.Post("http://"+addr+"/v1/chat/completions", "application/json", strings.NewReader(chat("Explain how tides form.")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil || strings.Contains(string(body), "internal server error") {
			t.Fatalf("client read %d %q, error %v; want the reply cut short", resp.StatusCode, body, err)
		}
		if !strings.HasPrefix(string(body), "data: first\n\n") {
			t.Fatalf("client read %q before the cut, want the first event", body)
		}
	})
}

// TestHangUpDuringAStalledUpstreamIs499: a client that closes its
// connection while the upstream stalls on its chat ends the upstream's
// r.Context() within a second, and the proxy's access line reads 499 —
// through a real listener, served by net/http and by the daemon's
// server. Fails on the daemon's server if nothing watches a request
// for its client leaving.
func TestHangUpDuringAStalledUpstreamIs499(t *testing.T) {
	servers(t, func(t *testing.T, viaDaemon bool) {
		reached, ended := make(chan struct{}), make(chan struct{})
		upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			close(reached)
			select {
			case <-r.Context().Done():
				close(ended)
			case <-time.After(10 * time.Second):
			}
		}))
		defer upstream.Close()
		addr, logged := serveClusterProxy(t, upstream.URL, viaDaemon)
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		body := chat("Explain how tides form.")
		fmt.Fprintf(c, "POST /v1/chat/completions HTTP/1.1\r\nHost: pasproxy\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		select {
		case <-reached:
		case <-time.After(5 * time.Second):
			t.Fatal("the chat never reached the upstream")
		}
		c.Close()
		select {
		case <-ended:
		case <-time.After(time.Second):
			t.Fatal("the upstream's request was not cancelled within 1s of the client leaving")
		}
		for deadline := time.Now().Add(2 * time.Second); !strings.Contains(logged.String(), `"status":499`); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("access log %q has no 499 line", logged.String())
			}
		}
	})
}
