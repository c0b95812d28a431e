package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// drainFixture is one replica-shaped System behind a real listener,
// fail-open like the daemons: a drain must shed all the same.
func drainFixture(t *testing.T) (*System, *httptest.Server) {
	t.Helper()
	sys := newSystem(testSystem(t).System.model)
	if err := sys.EnableServing(ServingConfig{CacheSize: 64, Degrade: true}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.Handler())
	t.Cleanup(srv.Close)
	return sys, srv
}

func getStatus(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/status answered %d, want 200 (draining must stay 2xx)", resp.StatusCode)
	}
	var wire struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire.Status
}

func postJSON(t *testing.T, url, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDrainEndpointFlipsStatusAndSheds: POST /v1/drain flips /v1/status
// to draining (still 200), new augmentations shed 503 + Retry-After
// without degrading, cached augmentations keep answering, and Quiesce
// returns once idle.
func TestDrainEndpointFlipsStatusAndSheds(t *testing.T) {
	sys, srv := drainFixture(t)
	exits := 0
	sys.OnDrain(func() { exits++ })

	if got := getStatus(t, srv.URL); got != "ok" {
		t.Fatalf("status before drain = %q, want ok", got)
	}
	// Warm one key so the hit path is observable during drain.
	warm := postJSON(t, srv.URL+"/v1/augment", `{"prompt":"keep me warm"}`, nil)
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warming request answered %d", warm.StatusCode)
	}

	resp := postJSON(t, srv.URL+"/v1/drain", `{"exit": false}`, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain answered %d", resp.StatusCode)
	}
	var dr struct {
		Status  string `json:"status"`
		Exiting bool   `json:"exiting"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.Status != "draining" || dr.Exiting {
		t.Fatalf("drain reply = %+v, want draining and not exiting", dr)
	}
	if exits != 0 {
		t.Fatal("exit hook fired despite {\"exit\": false}")
	}
	if got := getStatus(t, srv.URL); got != "draining" {
		t.Fatalf("status after drain = %q, want draining", got)
	}

	// New work sheds 503 + Retry-After — not a degraded 200: the 503 is
	// what moves the router off this replica.
	shed := postJSON(t, srv.URL+"/v1/augment", `{"prompt":"fresh work"}`, nil)
	defer shed.Body.Close()
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new work during drain answered %d, want 503", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("drain shed missing Retry-After")
	}
	if shed.Header.Get("X-PAS-Degraded") == "1" {
		t.Fatal("drain shed must not be served fail-open")
	}

	// Already-warmed traffic keeps answering.
	hit := postJSON(t, srv.URL+"/v1/augment", `{"prompt":"keep me warm"}`, nil)
	defer hit.Body.Close()
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("cache hit during drain answered %d, want 200", hit.StatusCode)
	}

	// Idempotent; a second drain reports already_draining.
	again := postJSON(t, srv.URL+"/v1/drain", `{"exit": false}`, nil)
	defer again.Body.Close()
	var dr2 struct {
		AlreadyDraining bool `json:"already_draining"`
	}
	if err := json.NewDecoder(again.Body).Decode(&dr2); err != nil {
		t.Fatal(err)
	}
	if !dr2.AlreadyDraining {
		t.Fatal("second drain did not report already_draining")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := sys.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce on an idle drained system: %v", err)
	}
	if stats := sys.core.Stats(); !stats.Draining || stats.ShedDraining == 0 {
		t.Fatalf("core stats after drain: draining %v shed_draining %d", stats.Draining, stats.ShedDraining)
	}
}

// TestDrainAdminTokenAndExitHook: a configured token gates the
// endpoint; a default (empty-body) drain fires the exit hook exactly
// once.
func TestDrainAdminTokenAndExitHook(t *testing.T) {
	sys, srv := drainFixture(t)
	sys.SetAdminToken("s3cret")
	exits := make(chan struct{}, 4)
	sys.OnDrain(func() { exits <- struct{}{} })

	for name, hdr := range map[string]map[string]string{
		"no token":    nil,
		"wrong token": {"X-PAS-Admin-Token": "nope"},
		"bare token":  {"Authorization": "s3cret"}, // only "Bearer s3cret" is the Authorization form
	} {
		resp := postJSON(t, srv.URL+"/v1/drain", "", hdr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s: drain answered %d, want 403", name, resp.StatusCode)
		}
	}
	if sys.Draining() {
		t.Fatal("unauthorized request drained the system")
	}

	// Bearer form works too, and the empty body means drain-and-exit.
	resp := postJSON(t, srv.URL+"/v1/drain", "", map[string]string{"Authorization": "Bearer s3cret"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b := new(bytes.Buffer)
		_, _ = b.ReadFrom(resp.Body)
		t.Fatalf("authorized drain answered %d: %s", resp.StatusCode, b)
	}
	var dr struct {
		Exiting bool `json:"exiting"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Exiting {
		t.Fatal("default drain did not request exit")
	}
	if !sys.Draining() {
		t.Fatal("authorized drain did not drain")
	}

	// The exit hook fires once, even across repeated exit drains.
	second := postJSON(t, srv.URL+"/v1/drain", `{"exit": true}`, map[string]string{"X-PAS-Admin-Token": "s3cret"})
	second.Body.Close()
	select {
	case <-exits:
	case <-time.After(2 * time.Second):
		t.Fatal("exit hook never fired")
	}
	select {
	case <-exits:
		t.Fatal("exit hook fired more than once")
	case <-time.After(50 * time.Millisecond):
	}
}
