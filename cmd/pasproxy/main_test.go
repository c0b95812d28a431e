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
	"net/http/httptest"
	"os"
	"path/filepath"
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
// as name.*) and each GET /metricsz series as name{label,...}, sorted.
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
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	t.Cleanup(upstream.Close)
	fs := flag.NewFlagSet("pasproxy", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse(append([]string{"-upstream", upstream.URL}, args...)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	o.Start(ctx, "pasproxy")
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

func chat(prompt string) string { return `{"messages":[{"role":"user","content":"` + prompt + `"}]}` }

// TestSurfaceGolden: the /v1/stats keys and /metricsz series pasproxy
// shows after one full, one fail-open and one shed chat from two
// tenants are testdata/surface-single.golden (the in-process core) and
// testdata/surface-cluster.golden (-replicas), so a key or a label that
// appears or disappears is a diff in review. `-update` rewrites them.
func TestSurfaceGolden(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		c := pas.DefaultConfig()
		c.CorpusSize, c.ClassifierExamples = 400, 300
		c.Augment.PerCategoryCap, c.Augment.HeavyCategoryCap = 8, 16
		built, err := pas.Build(c)
		model := filepath.Join(t.TempDir(), "model.json")
		if err == nil {
			err = built.System.SaveModel(model)
		}
		if err != nil {
			t.Fatal(err)
		}
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
		// A replica that answers by the prompt: full, flagged raw, or 503.
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
	// The per-replica breaker is the proxy's own pair of flags — the
	// serving core has no breaker — at the defaults the shared binder
	// used to give them.
	if serving.Lookup("breaker-threshold") != nil || serving.Lookup("breaker-cooldown") != nil ||
		o.breakerThreshold != 8 || o.breakerCooldown != 2*time.Second {
		t.Fatalf("per-replica breaker flags: threshold %d, cooldown %v; want pasproxy's own, 8 and 2s", o.breakerThreshold, o.breakerCooldown)
	}
}

// suffixAugmenter appends a fixed complement.
type suffixAugmenter struct{}

func (suffixAugmenter) AugmentContextDegraded(_ context.Context, prompt, _ string) (string, bool, error) {
	return prompt + "\nState your assumptions.", false, nil
}

// TestProxyReusesUpstreamConnections: the proxy has one upstream host,
// and net/http keeps two idle connections per host unless told
// otherwise, so with more than two clients most requests used to dial.
// After keepUpstreamConnections eight clients need eight connections.
func TestProxyReusesUpstreamConnections(t *testing.T) {
	keepUpstreamConnections()
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()

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
