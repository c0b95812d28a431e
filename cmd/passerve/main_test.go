package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	pas "repro"
	"repro/cmd/internal/daemon"
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
	if n < 14 {
		t.Fatalf("the binder declared %d flags, want the 12 serving + 2 observability ones", n)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/help.golden from what bindFlags declares")

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
	const golden = "testdata/help.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-h is not %s (rerun with -update if the change is meant):\n%s", golden, got.Bytes())
	}
}

var (
	buildOnce sync.Once
	built     *pas.BuildResult
	buildErr  error
)

// daemonUnderTest is newHandler over a freshly loaded System with cfg as
// its serving core, behind a real listener: passerve as it runs, minus
// the process. The small model is trained once per test binary and
// handed to each test's own System through a file, as -model is.
type daemonUnderTest struct {
	t   *testing.T
	srv *httptest.Server
}

func startDaemon(t *testing.T, cfg pas.ServingConfig) *daemonUnderTest {
	t.Helper()
	buildOnce.Do(func() {
		c := pas.DefaultConfig()
		c.CorpusSize = 400
		c.ClassifierExamples = 300
		c.Augment.PerCategoryCap = 8
		c.Augment.HeavyCategoryCap = 16
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
	d := &daemonUnderTest{t: t, srv: httptest.NewServer(newHandler(sys, o, log.New(io.Discard, "", 0)))}
	t.Cleanup(d.srv.Close)
	return d
}

type reply struct {
	code   int
	header http.Header
	body   string
}

// do sends one request and reads the whole reply; safe from any goroutine.
func (d *daemonUnderTest) do(method, path, tenant, body string) (reply, error) {
	req, err := http.NewRequest(method, d.srv.URL+path, strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if tenant != "" {
		req.Header.Set("X-PAS-Tenant", tenant)
	}
	resp, err := d.srv.Client().Do(req)
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
	DefaultTenantWeight: 1,
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
