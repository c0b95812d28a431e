package daemon

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/textproto"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	pas "repro"
)

func parse(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs)
	return f, fs.Parse(args)
}

// TestBindDefaults: no arguments yields the documented defaults table —
// the configuration BENCHMARK.json measures.
func TestBindDefaults(t *testing.T) {
	f, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	want := pas.ServingConfig{
		CacheSize: 4096, MaxInFlight: 64, QueueDepth: 256, QueueWait: 100 * time.Millisecond,
		Degrade: true,
	}
	if !reflect.DeepEqual(f.Serving, want) {
		t.Fatalf("default serving config:\n got %+v\nwant %+v", f.Serving, want)
	}
	if f.DebugAddr != "" || f.TraceSample != 1 {
		t.Fatalf("default obs flags = (%q, %d), want (\"\", 1)", f.DebugAddr, f.TraceSample)
	}
}

// TestBindRoundTrip: every flag lands in its own field, and every flag
// the binder declares has a row here.
func TestBindRoundTrip(t *testing.T) {
	rows := []struct {
		name, arg string
		get       func(*Flags) any
		want      any
	}{
		{"cache-size", "-1", func(f *Flags) any { return f.Serving.CacheSize }, -1},
		{"cache-ttl", "30s", func(f *Flags) any { return f.Serving.CacheTTL }, 30 * time.Second},
		{"max-inflight", "8", func(f *Flags) any { return f.Serving.MaxInFlight }, 8},
		{"max-tenants", "16", func(f *Flags) any { return f.Serving.MaxTenants }, 16},
		{"compute-delay", "25ms", func(f *Flags) any { return f.Serving.ComputeDelay }, 25 * time.Millisecond},
		{"queue-depth", "0", func(f *Flags) any { return f.Serving.QueueDepth }, 0},
		{"queue-wait", "250ms", func(f *Flags) any { return f.Serving.QueueWait }, 250 * time.Millisecond},
		{"degrade", "false", func(f *Flags) any { return f.Serving.Degrade }, false},
		{"debug-addr", "127.0.0.1:6061", func(f *Flags) any { return f.DebugAddr }, "127.0.0.1:6061"},
		{"trace-sample", "100", func(f *Flags) any { return f.TraceSample }, 100},
	}
	defaults, _ := parse(t)
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.name] = true
		f, err := parse(t, "-"+r.name+"="+r.arg)
		if err != nil {
			t.Errorf("-%s=%s: %v", r.name, r.arg, err)
			continue
		}
		if got := r.get(f); !reflect.DeepEqual(got, r.want) {
			t.Errorf("-%s=%s: field = %v, want %v", r.name, r.arg, got, r.want)
		}
		// Nothing else moved: undoing the one field restores the defaults.
		for _, o := range rows {
			if o.name != r.name && !reflect.DeepEqual(o.get(f), o.get(defaults)) {
				t.Errorf("-%s also changed the field of -%s", r.name, o.name)
			}
		}
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Bind(fs)
	fs.VisitAll(func(fl *flag.Flag) {
		if !covered[fl.Name] {
			t.Errorf("flag -%s has no round-trip row", fl.Name)
		}
	})
}

// lockedBuffer is a log sink a handler goroutine writes while the test
// reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEarlyHintsRecordTheFinalStatus: a handler behind the daemons'
// chain and server that sends 103 Early Hints and then a body answers
// the client 200, and the access line, pas_http_errors_total and the
// root span record that 200, not the informational 103 — with the body
// written directly and with a Flush first.
func TestEarlyHintsRecordTheFinalStatus(t *testing.T) {
	o := &Obs{TraceSample: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.Start(ctx, "test")
	logs := &lockedBuffer{}
	mux := http.NewServeMux()
	hints := func(flush bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Link", "</style.css>; rel=preload; as=style")
			w.WriteHeader(http.StatusEarlyHints)
			if flush {
				w.(http.Flusher).Flush()
			}
			_, _ = io.WriteString(w, "hello")
		}
	}
	mux.Handle("/hints", hints(false))
	mux.Handle("/hints-flushed", hints(true))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws, errc := Serve(&http.Server{Handler: o.Chain(mux, "test", log.New(logs, "", 0))}, l)
	defer func() {
		_ = ws.Shutdown(context.Background())
		<-errc
	}()

	for _, path := range []string{"/hints", "/hints-flushed"} {
		var informational []int
		trace := &httptrace.ClientTrace{Got1xxResponse: func(code int, _ textproto.MIMEHeader) error {
			informational = append(informational, code)
			return nil
		}}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodGet, "http://"+l.Addr().String()+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != "hello" || !reflect.DeepEqual(informational, []int{103}) {
			t.Fatalf("%s: client read %d %q (%v) after 1xx %v, want 103 then 200 \"hello\"", path, resp.StatusCode, body, err, informational)
		}
	}

	// The chain records after the handler returns, which may be after
	// the client has read the reply.
	deadline := time.Now().Add(5 * time.Second)
	for o.Tracer.Snapshot().Kept < 2 || strings.Count(logs.String(), "\n") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the chain did not record both requests; log:\n%s", logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, path := range []string{"/hints", "/hints-flushed"} {
		if want := `"path":"` + path + `","status":200,`; !strings.Contains(logs.String(), want) {
			t.Errorf("access log has no %s; log:\n%s", want, logs)
		}
	}
	roots := 0
	for _, tr := range o.Tracer.Snapshot().Recent {
		for _, sp := range tr.Spans {
			for _, a := range sp.Attrs {
				if sp.ParentID == "" && a.Key == "http.status" {
					roots++
					if a.Value != "200" {
						t.Errorf("root span %s: http.status = %s, want 200", sp.Name, a.Value)
					}
				}
			}
		}
	}
	if roots != 2 {
		t.Errorf("found %d root spans with an http.status, want 2", roots)
	}
	rr := httptest.NewRecorder()
	o.Reg.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	for _, path := range []string{"/hints", "/hints-flushed"} {
		if want := `pas_http_request_duration_seconds_count{path="` + path + `"} 1`; !strings.Contains(rr.Body.String(), want) {
			t.Errorf("metrics have no %s", want)
		}
		if bad := `pas_http_errors_total{path="` + path + `"} 1`; strings.Contains(rr.Body.String(), bad) {
			t.Errorf("metrics count a 200 as an error: %s", bad)
		}
	}
}
