package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
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

// TestControlPlaneOutlivesTheLimiter: with every slot of the
// data-plane backstop held by augment requests, the control plane still
// answers — the ring's probe sees a live replica, an operator can drain
// it — while a further augment is shed by the limiter as before.
func TestControlPlaneOutlivesTheLimiter(t *testing.T) {
	cfg := pas.DefaultConfig()
	cfg.CorpusSize = 400
	cfg.ClassifierExamples = 300
	cfg.Augment.PerCategoryCap = 8
	cfg.Augment.HeavyCategoryCap = 16
	res, err := pas.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := res.System
	// Each admitted augment holds its limiter slot for this long.
	if err := sys.EnableServing(pas.ServingConfig{ComputeDelay: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	o := daemon.BindObs(flag.NewFlagSet("passerve", flag.ContinueOnError))
	o.Start(context.Background(), "passerve")
	const slots = 2
	srv := httptest.NewServer(newHandler(sys, o, slots, log.New(io.Discard, "", 0)))
	defer srv.Close()

	do := func(method, path, body string) (int, http.Header, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, string(b)
	}

	var held sync.WaitGroup
	for i := 0; i < slots; i++ {
		held.Add(1)
		go func(i int) {
			defer held.Done()
			if code, _, body := do("POST", "/v1/augment", fmt.Sprintf(`{"prompt":"Explain how tides form, part %d."}`, i)); code != http.StatusOK {
				t.Errorf("held augment %d: status %d: %s", i, code, body)
			}
		}(i)
	}
	// /v1/stats is itself a control-plane route: poll it until both
	// computations — and so both limiter slots — are held.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(2 * time.Millisecond) {
		_, _, body := do("GET", "/v1/stats", "")
		if strings.Contains(body, `"in_flight":2`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the augment requests never took the limiter's slots: %s", body)
		}
	}

	if code, _, body := do("GET", "/v1/status", ""); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/v1/status behind a full limiter: %d %s", code, body)
	}
	if code, _, body := do("GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("/healthz behind a full limiter: %d %s", code, body)
	}
	code, hdr, body := do("POST", "/v1/augment", `{"prompt":"One request too many."}`)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" || !strings.Contains(body, `"server overloaded"`) {
		t.Fatalf("augment beyond the limiter: %d, Retry-After %q, %s; want the limiter's 503", code, hdr.Get("Retry-After"), body)
	}
	if code, _, body := do("POST", "/v1/drain", `{"exit":false}`); code != http.StatusOK {
		t.Fatalf("/v1/drain behind a full limiter: %d %s", code, body)
	}
	if _, _, body := do("GET", "/v1/status", ""); !strings.Contains(body, `"status":"draining"`) {
		t.Fatalf("status after the drain: %s", body)
	}
	held.Wait()
}
