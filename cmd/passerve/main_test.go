package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	pas "repro"
	"repro/cmd/internal/daemon"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestServingFlagsAreTheSharedBinders: every serving flag passerve
// exposes is cmd/internal/daemon's, name, default and help. The same
// test in the other daemon compares against the same binder, so the two
// cannot drift apart.
func TestServingFlagsAreTheSharedBinders(t *testing.T) {
	got := flag.NewFlagSet("passerve", flag.ContinueOnError)
	bindFlags(got)
	want := flag.NewFlagSet("daemon", flag.ContinueOnError)
	daemon.Bind(want)
	n := 0
	want.VisitAll(func(w *flag.Flag) {
		n++
		g := got.Lookup(w.Name)
		if g == nil || g.DefValue != w.DefValue || g.Usage != w.Usage {
			t.Errorf("-%s: passerve has %+v, the binder %+v", w.Name, g, w)
		}
	})
	if n != 10 {
		t.Fatalf("the binder declared %d flags, want the 8 serving + 2 observability ones", n)
	}
}

// TestDrainLingerOutlastsADefaultProbe: a default prober (pasproxy's
// -probe-interval and -probe-timeout, ring.HealthConfig's zero value)
// starts its next read of a healthy member's /v1/status less than
// wire.ProbeInterval after the last one, and the read may take
// wire.ProbeTimeout. Only a linger of both together has every such
// prober read "draining" before the listener closes; a shorter one lets
// some drains go Suspect -> Down instead of Draining.
func TestDrainLingerOutlastsADefaultProbe(t *testing.T) {
	o := bindFlags(flag.NewFlagSet("passerve", flag.ContinueOnError))
	if need := wire.ProbeInterval + wire.ProbeTimeout; o.drainLinger < need {
		t.Fatalf("-drain-linger defaults to %v, under the %v a default prober may take to read the drain", o.drainLinger, need)
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

// TestHelpGolden: what `passerve -h` prints is testdata/help.golden, so a flag
// that appears, disappears or changes its default or wording is a
// one-line diff in review, not a comparison against a build of the
// parent. `go test ./cmd/passerve -update` rewrites it.
func TestHelpGolden(t *testing.T) {
	var got bytes.Buffer
	fs := flag.NewFlagSet("passerve", flag.ContinueOnError)
	fs.SetOutput(&got)
	bindFlags(fs)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	checkGolden(t, "help.golden", got.Bytes())
}

// surface is what a client reads off a daemon, values aside: the key
// paths of GET /v1/stats (array elements as name[]) and each GET
// /metricsz series as name{label,...}, with each family's TYPE and HELP,
// sorted.
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

// TestSurfaceGolden: the /v1/stats keys and /metricsz series passerve
// shows after one full, one fail-open and one shed request from two
// tenants are testdata/surface.golden, so a key or a label that appears
// or disappears is a diff in review. `-update` rewrites it.
func TestSurfaceGolden(t *testing.T) {
	fs := flag.NewFlagSet("passerve", flag.ContinueOnError)
	o := bindFlags(fs)
	// One slot and no waiting room: a computation asked for while another
	// runs is shed, and answered raw; after the drain one is refused.
	if err := fs.Parse([]string{"-max-inflight", "1", "-queue-depth", "0", "-compute-delay", "200ms"}); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, o.Serving)
	full := make(chan reply, 1)
	go func() {
		r, _ := d.do("POST", "/v1/augment", "a", `{"prompt":"Explain how tides form."}`)
		full <- r
	}()
	for deadline := time.Now().Add(5 * time.Second); d.stats().InFlight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first computation never started")
		}
	}
	if r, _ := d.do("POST", "/v1/augment", "b", `{"prompt":"Write a haiku about rain."}`); r.code != http.StatusOK || r.header.Get("X-PAS-Degraded") != "1" {
		t.Fatalf("fail-open: %d %s", r.code, r.body)
	}
	if r := <-full; r.code != http.StatusOK || r.header.Get("X-PAS-Degraded") != "" {
		t.Fatalf("full: %d %s", r.code, r.body)
	}
	d.must("POST", "/v1/drain", `{"exit":false}`)
	if r, _ := d.do("POST", "/v1/augment", "b", `{"prompt":"Name three rivers."}`); r.code != http.StatusServiceUnavailable {
		t.Fatalf("shed: %d %s", r.code, r.body)
	}
	checkGolden(t, "surface.golden", surface(t, func(path string) string { return d.must("GET", path, "").body }))
}

// pinned is the one instant every clock of a golden script reads, so
// every duration it records is 0.
func pinned() time.Time { return time.Unix(1_700_000_000, 0) }

// goldenTracer is a tracer on the pinned clock, with ids from a fixed
// seed, that head-samples only the first trace: a golden script's first
// request is its exposition's one exemplar.
func goldenTracer(o *daemon.Obs) {
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

// TestMetricszGolden: the whole /metricsz exposition passerve serves
// after a fixed script, values and exemplar included, is
// testdata/metricsz.golden. The script sends a full, a cached and a
// malformed (400) augmentation, reads /v1/stats and /healthz, and asks
// for unknown paths (404s) until one is past the 64-path cap, in "other".
func TestMetricszGolden(t *testing.T) {
	d := startDaemon(t, pas.ServingConfig{Now: pinned}, goldenTracer)
	for _, step := range []struct {
		method, path, tenant, body string
		want                       int
	}{
		{"POST", "/v1/augment", "a", `{"prompt":"Explain how tides form."}`, http.StatusOK},
		{"POST", "/v1/augment", "b", `{"prompt":"Explain how tides form."}`, http.StatusOK},
		{"POST", "/v1/augment", "b", `{"prompt":`, http.StatusBadRequest},
		{"GET", "/v1/stats", "", "", http.StatusOK},
		{"GET", "/healthz", "", "", http.StatusOK},
	} {
		if r, err := d.do(step.method, step.path, step.tenant, step.body); err != nil || r.code != step.want {
			t.Fatalf("%s %s: %d %v, want %d", step.method, step.path, r.code, err, step.want)
		}
	}
	for i := 0; i < 62; i++ {
		if r := d.must("GET", fmt.Sprintf("/unknown/%02d", i), ""); r.code != http.StatusNotFound {
			t.Fatalf("/unknown/%02d: %d", i, r.code)
		}
	}
	checkGolden(t, "metricsz.golden", exposition(d.must("GET", "/metricsz?exemplars=1", "").body))
}

var (
	buildOnce sync.Once
	built     *pas.BuildResult
	buildErr  error
)

// daemonUnderTest is newHandler over a freshly loaded System with cfg as
// its serving core, served by daemon.Serve on a real listener: passerve
// as it runs, minus the process. The small model is trained once per
// test binary and handed to each test's own System through a file, as
// -model is. log holds its access lines.
type daemonUnderTest struct {
	t      *testing.T
	url    string
	client *http.Client
	log    *syncBuffer
}

func startDaemon(t *testing.T, cfg pas.ServingConfig, tune ...func(*daemon.Obs)) *daemonUnderTest {
	t.Helper()
	buildOnce.Do(func() {
		c := pas.DefaultConfig()
		c.CorpusSize, c.ClassifierExamples = 400, 300
		c.Augment.PerCategoryCap, c.Augment.HeavyCategoryCap = 8, 16
		built, buildErr = pas.Build(c)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	modelPath := filepath.Join(t.TempDir(), "model.json")
	if err := built.System.SaveModel(modelPath); err != nil {
		t.Fatal(err)
	}
	sys, err := pas.LoadSystem(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.EnableServing(cfg); err != nil {
		t.Fatal(err)
	}
	o := daemon.BindObs(flag.NewFlagSet("passerve", flag.ContinueOnError))
	o.Start(context.Background(), "passerve")
	for _, f := range tune {
		f(o)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemonUnderTest{t: t, url: "http://" + ln.Addr().String(), client: &http.Client{Transport: &http.Transport{}}, log: &syncBuffer{}}
	ws, _ := daemon.Serve(&http.Server{Handler: newHandler(sys, o, log.New(d.log, "", 0))}, ln)
	t.Cleanup(func() {
		d.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ws.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return d
}

// syncBuffer is a log sink the handlers' goroutines write while the
// test reads.
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

type reply struct {
	code   int
	header http.Header
	body   string
}

// do sends one request and reads the whole reply; safe from any goroutine.
func (d *daemonUnderTest) do(method, path, tenant, body string) (reply, error) {
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if tenant != "" {
		req.Header.Set("X-PAS-Tenant", tenant)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header, string(b)}, err
}

func (d *daemonUnderTest) must(method, path, body string) reply {
	d.t.Helper()
	r, err := d.do(method, path, "", body)
	if err != nil {
		d.t.Fatal(err)
	}
	return r
}

// stats decodes GET /v1/stats.
func (d *daemonUnderTest) stats() (st struct {
	InFlight  int   `json:"in_flight"`
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Degraded  int64 `json:"degraded"`
	DedupHits int64 `json:"dedup_hits"`
	Tenants   []struct {
		Tenant                   string
		Requests, Admitted, Shed int64
	} `json:"tenants"`
}) {
	d.t.Helper()
	r := d.must("GET", "/v1/stats", "")
	if err := json.Unmarshal([]byte(r.body), &st); err != nil || r.code != http.StatusOK {
		d.t.Fatalf("/v1/stats: %d %s: %v", r.code, r.body, err)
	}
	return st
}

// flood sends n concurrent POST /v1/augment, request i carrying
// prompt(i) for tenant(i), and returns the replies in request order.
func (d *daemonUnderTest) flood(n int, tenant, prompt func(i int) string) []reply {
	d.t.Helper()
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(pas.AugmentRequest{Prompt: prompt(i)})
			r, err := d.do("POST", "/v1/augment", tenant(i), string(body))
			if err != nil {
				d.t.Errorf("request %d: %v", i, err)
			}
			replies[i] = r
		}(i)
	}
	wg.Wait()
	return replies
}

// shrunkCore is the daemon's default admission (64 slots, 256 waiters,
// 100ms) shrunk sixteen-fold, with M_p padded so that a few hundred
// requests are a flood: 4 / 20ms = 200 computations a second.
var shrunkCore = pas.ServingConfig{
	CacheSize: -1, ComputeDelay: 20 * time.Millisecond,
	MaxInFlight: 4, QueueDepth: 16, QueueWait: 50 * time.Millisecond, Degrade: true,
}

// TestFloodIsNever5xxWhenFailOpen: the serving core is the only
// admission in front of M_p, and with -degrade it fails open — so a flood
// twenty times what the core can hold, one tenant sending ten times the
// other's share, is answered 200 four hundred times: augmented, or the
// prompt as sent and flagged. Nothing outside the core may turn one of
// them into an error, the quiet tenant's least of all.
func TestFloodIsNever5xxWhenFailOpen(t *testing.T) {
	d := startDaemon(t, shrunkCore)
	const n = 400
	tenant := func(i int) string {
		if i%11 == 0 {
			return "t1"
		}
		return "t0"
	}
	prompt := func(i int) string { return fmt.Sprintf("Explain how tides form, part %d.", i) }
	raw := 0
	for i, r := range d.flood(n, tenant, prompt) {
		var ar pas.AugmentResponse
		if err := json.Unmarshal([]byte(r.body), &ar); err != nil || r.code != http.StatusOK {
			t.Errorf("request %d (%s): status %d, Retry-After %q, body %.80q; want 200", i, tenant(i), r.code, r.header.Get("Retry-After"), r.body)
			continue
		}
		flag := r.header.Get("X-PAS-Degraded")
		switch {
		case ar.Complement == "":
			raw++
			if flag != "1" || !ar.Degraded || ar.Augmented != prompt(i) {
				t.Errorf("request %d: no complement, X-PAS-Degraded %q, augmented %.60q; want the prompt intact and flagged", i, flag, ar.Augmented)
			}
		case flag != "" || ar.Degraded || ar.Augmented != prompt(i)+"\n"+ar.Complement:
			t.Errorf("request %d: complement with X-PAS-Degraded %q, augmented %.60q; want cat(p, M_p(p)) unflagged", i, flag, ar.Augmented)
		}
	}
	st := d.stats()
	if raw == 0 || raw == n || st.Degraded != int64(raw) {
		t.Errorf("%d of %d answered raw, stats degraded %d: want a flood the core absorbs part of, every raw answer counted", raw, n, st.Degraded)
	}
	// The fair queue's own books close for both tenants: each computation
	// a tenant asked for was admitted or refused by the core, and every
	// refusal above was still a 200.
	for _, ts := range st.Tenants {
		if ts.Requests != ts.Admitted+ts.Shed {
			t.Errorf("tenant %s: requests %d != admitted %d + shed %d", ts.Tenant, ts.Requests, ts.Admitted, ts.Shed)
		}
	}
	t.Logf("%d raw of %d; core: %+v", raw, n, st)
}

// TestHerdOnOnePromptIsAnsweredInFull: four hundred clients ask for the
// same prompt at once with the cache off. Single-flight computes it a
// handful of times and every client gets the full-quality answer; the
// core is never near its bound, so nothing is refused or degraded.
func TestHerdOnOnePromptIsAnsweredInFull(t *testing.T) {
	cfg := shrunkCore
	// Long enough that the whole herd arrives inside a few computations
	// even under the race detector.
	cfg.ComputeDelay = 150 * time.Millisecond
	d := startDaemon(t, cfg)
	const n, prompt = 400, "Explain how tides form."
	for i, r := range d.flood(n, func(int) string { return "" }, func(int) string { return prompt }) {
		var ar pas.AugmentResponse
		if err := json.Unmarshal([]byte(r.body), &ar); err != nil || r.code != http.StatusOK ||
			r.header.Get("X-PAS-Degraded") != "" || ar.Complement == "" || ar.Augmented != prompt+"\n"+ar.Complement {
			t.Errorf("request %d: status %d, X-PAS-Degraded %q, body %.80q; want a full-quality 200", i, r.code, r.header.Get("X-PAS-Degraded"), r.body)
		}
	}
	st := d.stats()
	if computed := st.Completed - st.DedupHits; st.Completed != n || st.DedupHits < n-10 || st.Shed != 0 || st.Degraded != 0 {
		t.Errorf("core: %+v; want %d completed, at most 10 of them computed (%d were), nothing shed or degraded", st, n, computed)
	}
}

// TestControlPlaneAnswersDuringAFlood: with the core saturated and its
// waiting room full, the routes the fleet steers by still answer — the
// ring's probe sees a live replica, an operator can read its stats and
// drain it — and a drained replica refuses new computations itself, 503
// with Retry-After, while a cache hit still answers.
func TestControlPlaneAnswersDuringAFlood(t *testing.T) {
	cfg := shrunkCore
	cfg.CacheSize = 64
	cfg.ComputeDelay = 200 * time.Millisecond
	cfg.QueueWait = 5 * time.Second
	d := startDaemon(t, cfg)
	const warm = `{"prompt":"Explain how tides form."}`
	if r := d.must("POST", "/v1/augment", warm); r.code != http.StatusOK || r.header.Get("X-PAS-Degraded") != "" {
		t.Fatalf("warming the cache: %d %s", r.code, r.body)
	}

	// Exactly what the core holds: every slot and every place in the
	// waiting room, for five rounds of computation.
	held := cfg.MaxInFlight + cfg.QueueDepth
	flooded := make(chan []reply, 1)
	go func() {
		flooded <- d.flood(held, func(int) string { return "" }, func(i int) string { return fmt.Sprintf("Explain how tides form, part %d.", i) })
	}()
	for deadline := time.Now().Add(5 * time.Second); d.stats().Requests < int64(1+held); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the flood never filled the core: %+v", d.stats())
		}
	}
	if st := d.stats(); st.InFlight != cfg.MaxInFlight {
		t.Fatalf("flood in place, in_flight %d; want every slot held", st.InFlight)
	}

	if r := d.must("GET", "/v1/status", ""); r.code != http.StatusOK || !strings.Contains(r.body, `"status":"ok"`) {
		t.Errorf("/v1/status during the flood: %d %s", r.code, r.body)
	}
	if r := d.must("GET", "/healthz", ""); r.code != http.StatusOK {
		t.Errorf("/healthz during the flood: %d %s", r.code, r.body)
	}
	if r := d.must("POST", "/v1/drain", `{"exit":false}`); r.code != http.StatusOK {
		t.Fatalf("/v1/drain during the flood: %d %s", r.code, r.body)
	}
	if r := d.must("GET", "/v1/status", ""); !strings.Contains(r.body, `"status":"draining"`) {
		t.Errorf("status after the drain: %s", r.body)
	}
	r := d.must("POST", "/v1/augment", `{"prompt":"One computation too late."}`)
	if r.code != http.StatusServiceUnavailable || r.header.Get("Retry-After") == "" || !strings.Contains(r.body, "shutting down") {
		t.Errorf("new computation on a drained replica: %d, Retry-After %q, %s; want the core's 503", r.code, r.header.Get("Retry-After"), r.body)
	}
	if r := d.must("POST", "/v1/augment", warm); r.code != http.StatusOK || r.header.Get("X-PAS-Degraded") != "" {
		t.Errorf("cache hit on a drained replica: %d %s", r.code, r.body)
	}
	// What the core had admitted or queued before the drain finishes, at
	// full quality.
	for i, r := range <-flooded {
		if r.code != http.StatusOK || r.header.Get("X-PAS-Degraded") != "" {
			t.Errorf("flood request %d: %d, X-PAS-Degraded %q, %s", i, r.code, r.header.Get("X-PAS-Degraded"), r.body)
		}
	}
}

// TestClientLeavingTheQueueIs499: a client that closes its connection
// while its request waits for a computation slot is seen leaving by
// the daemon's server: the core gives up the wait, and the access line
// reads 499, not a shed. Fails if nothing watches a request for its
// client leaving once the grace is past.
func TestClientLeavingTheQueueIs499(t *testing.T) {
	cfg := shrunkCore
	cfg.MaxInFlight, cfg.ComputeDelay, cfg.QueueWait = 1, 500*time.Millisecond, 5*time.Second
	d := startDaemon(t, cfg)
	held := make(chan reply, 1)
	go func() {
		r, _ := d.do("POST", "/v1/augment", "", `{"prompt":"Explain how tides form."}`)
		held <- r
	}()
	for deadline := time.Now().Add(5 * time.Second); d.stats().InFlight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first computation never started")
		}
	}
	c, err := net.Dial("tcp", strings.TrimPrefix(d.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"prompt":"Write a haiku about rain."}`
	fmt.Fprintf(c, "POST /v1/augment HTTP/1.1\r\nHost: passerve\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	time.Sleep(50 * time.Millisecond) // queued, past the grace
	c.Close()
	for deadline := time.Now().Add(time.Second); !strings.Contains(d.log.String(), `"status":499`); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no 499 access line within 1s of the client leaving: %q", d.log.String())
		}
	}
	if strings.Contains(d.log.String(), `"shed":true`) {
		t.Errorf("the abandoned request was logged as a shed: %q", d.log.String())
	}
	if r := <-held; r.code != http.StatusOK {
		t.Errorf("the held computation: %d %s", r.code, r.body)
	}
}
