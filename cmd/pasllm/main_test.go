package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/chatapi"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what pasllm declares and serves")

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

// TestHelpGolden: what `pasllm -h` prints is testdata/help.golden, so a flag
// that appears, disappears or changes its default or wording is a
// one-line diff in review, not a comparison against a build of the
// parent. `go test ./cmd/pasllm -update` rewrites it.
func TestHelpGolden(t *testing.T) {
	var got bytes.Buffer
	fs := flag.NewFlagSet("pasllm", flag.ContinueOnError)
	fs.SetOutput(&got)
	bindFlags(fs)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v", err)
	}
	checkGolden(t, "help.golden", got.Bytes())
}

// surface is what a client reads off pasllm run with args, values
// aside, after the same chat twice: the key paths of GET /v1/status and
// each GET /metricsz series as name{label,...}, with each family's TYPE
// and HELP, sorted. Usage metering is off: it needs a trained
// vocabulary and changes no key.
func surface(t *testing.T, args ...string) []string {
	t.Helper()
	fs := flag.NewFlagSet("pasllm", flag.ContinueOnError)
	_, rate, _, cache, o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	server, err := chatapi.NewServer(chatapi.ServerConfig{RatePerMinute: *rate, CacheSize: *cache})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.Start(ctx, "pasllm")
	srv := httptest.NewServer(newHandler(server, o, log.New(io.Discard, "", 0)))
	defer srv.Close()
	get := func(method, path, body string) string {
		req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, b)
		}
		return string(b)
	}
	for range 2 {
		get("POST", "/v1/chat/completions", `{"model":"gpt-4-0613","seed":"s","messages":[{"role":"user","content":"Explain how tides form."}]}`)
	}

	var status map[string]any
	if err := json.Unmarshal([]byte(get("GET", "/v1/status", "")), &status); err != nil {
		t.Fatalf("/v1/status: %v", err)
	}
	var lines []string
	for k, v := range status {
		if sub, ok := v.(map[string]any); ok {
			for sk := range sub {
				lines = append(lines, "status "+k+"."+sk)
			}
			continue
		}
		lines = append(lines, "status "+k)
	}
	fams, err := obs.ParseExposition(strings.NewReader(get("GET", "/metricsz", "")))
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
	return slices.Compact(lines)
}

// TestSurfaceGolden: the /v1/status keys and /metricsz series pasllm
// shows with and without -cache are testdata/surface.golden, so a key,
// a series or a HELP text that appears, disappears or changes is a diff
// in review. `-update` rewrites it.
func TestSurfaceGolden(t *testing.T) {
	var got []string
	for _, cache := range []string{"0", "8"} {
		got = append(got, "# pasllm -cache "+cache)
		got = append(got, surface(t, "-cache", cache)...)
	}
	checkGolden(t, "surface.golden", []byte(strings.Join(got, "\n")+"\n"))
}
