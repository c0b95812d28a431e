package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pas "repro"
	"repro/cmd/internal/daemon"
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
	if n < 14 {
		t.Fatalf("the binder declared %d flags, want the 12 serving + 2 observability ones", n)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/help.golden from what bindFlags declares")

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
