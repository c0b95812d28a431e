package ring

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func adminRequest(t *testing.T, h http.Handler, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestAdminHandlerAuthAndMutations: the membership admin API refuses
// everything without a configured token, authenticates via header or
// bearer, and joins/retires replicas through the client.
func TestAdminHandlerAuthAndMutations(t *testing.T) {
	c, err := NewClient(Config{Replicas: []string{"http://a:1", "http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}

	// No token configured: the endpoint is disabled, not open.
	disabled := c.AdminHandler("")
	if w := adminRequest(t, disabled, http.MethodGet, "/v1/cluster/replicas", "", nil); w.Code != http.StatusForbidden {
		t.Fatalf("tokenless handler answered %d, want 403", w.Code)
	}

	h := c.AdminHandler("hunter2")
	for name, hdr := range map[string]map[string]string{
		"no credential": nil,
		"wrong token":   {"X-PAS-Admin-Token": "nope"},
		"wrong bearer":  {"Authorization": "Bearer nope"},
	} {
		if w := adminRequest(t, h, http.MethodPost, "/v1/cluster/replicas", `{"url":"http://evil:1"}`, hdr); w.Code != http.StatusForbidden {
			t.Fatalf("%s: answered %d, want 403", name, w.Code)
		}
	}
	if len(c.Membership().Snapshot()) != 2 {
		t.Fatal("unauthorized request mutated the fleet")
	}
	auth := map[string]string{"X-PAS-Admin-Token": "hunter2"}

	// GET lists the health table.
	w := adminRequest(t, h, http.MethodGet, "/v1/cluster/replicas", "", map[string]string{"Authorization": "Bearer hunter2"})
	if w.Code != http.StatusOK {
		t.Fatalf("GET answered %d: %s", w.Code, w.Body)
	}
	var members []MemberStatus
	if err := json.Unmarshal(w.Body.Bytes(), &members); err != nil || len(members) != 2 {
		t.Fatalf("GET body = %s (err %v), want 2 members", w.Body, err)
	}

	// POST joins a replica; the second join is an acknowledged no-op.
	w = adminRequest(t, h, http.MethodPost, "/v1/cluster/replicas", `{"url":"http://c:1/"}`, auth)
	if w.Code != http.StatusOK {
		t.Fatalf("POST answered %d: %s", w.Code, w.Body)
	}
	var resp adminMemberResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.URL != "http://c:1" || !resp.Changed || resp.Live != 3 {
		t.Fatalf("POST reply = %+v, want normalized url, changed, live 3", resp)
	}
	if c.Ring().Size() != 3 {
		t.Fatalf("ring size = %d after join, want 3", c.Ring().Size())
	}
	w = adminRequest(t, h, http.MethodPost, "/v1/cluster/replicas", `{"url":"http://c:1"}`, auth)
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if w.Code != http.StatusOK || resp.Changed {
		t.Fatalf("repeat POST = %d %+v, want 200 unchanged", w.Code, resp)
	}

	// Bad URLs are rejected at the door.
	if w := adminRequest(t, h, http.MethodPost, "/v1/cluster/replicas", `{"url":"ftp://nope"}`, auth); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid URL answered %d, want 400", w.Code)
	}
	if w := adminRequest(t, h, http.MethodPost, "/v1/cluster/replicas", ``, auth); w.Code != http.StatusBadRequest {
		t.Fatalf("missing URL answered %d, want 400", w.Code)
	}

	// DELETE retires it (query form); a repeat is 404.
	w = adminRequest(t, h, http.MethodDelete, "/v1/cluster/replicas?url=http://c:1", "", auth)
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if w.Code != http.StatusOK || !resp.Changed || resp.Live != 2 {
		t.Fatalf("DELETE = %d %+v, want 200 changed live 2", w.Code, resp)
	}
	if c.Ring().Size() != 2 {
		t.Fatalf("ring size = %d after retire, want 2", c.Ring().Size())
	}
	if w := adminRequest(t, h, http.MethodDelete, "/v1/cluster/replicas?url=http://c:1", "", auth); w.Code != http.StatusNotFound {
		t.Fatalf("repeat DELETE answered %d, want 404", w.Code)
	}

	if w := adminRequest(t, h, http.MethodPut, "/v1/cluster/replicas", "", auth); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT answered %d, want 405", w.Code)
	}
}

// TestAddRemoveReplicaBreakers: a retired replica's breaker is dropped
// so a later re-add starts closed, and Stats follows the live
// membership rather than the boot-time replica list.
func TestAddRemoveReplicaBreakers(t *testing.T) {
	c, err := NewClient(Config{Replicas: []string{"http://a:1"}, BreakerThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, changed, err := c.addReplica("http://b:1"); err != nil || !changed {
		t.Fatalf("addReplica = changed %v, err %v", changed, err)
	}
	// Trip b's breaker, retire it, rejoin it: the breaker must be new.
	b := c.mem.lookup([]string{"http://b:1"})[0].breaker
	done, err := b.Allow()
	if err != nil {
		t.Fatal(err)
	}
	done(false)
	if b.State().String() != "open" {
		t.Fatalf("breaker state %s after failure, want open", b.State())
	}
	if removed, err := c.removeReplica("http://b:1"); err != nil || !removed {
		t.Fatalf("removeReplica = %v, %v", removed, err)
	}
	if _, _, err := c.addReplica("http://b:1"); err != nil {
		t.Fatal(err)
	}
	if got := c.mem.lookup([]string{"http://b:1"})[0].breaker; got == b || got.State().String() != "closed" {
		t.Fatalf("re-added replica kept its tripped breaker (state %s)", got.State())
	}

	s := c.Stats()
	if len(s.Replicas) != 2 {
		t.Fatalf("Stats lists %d replicas, want the 2 live members", len(s.Replicas))
	}
	for _, r := range s.Replicas {
		if r.URL != "http://a:1" && r.URL != "http://b:1" {
			t.Fatalf("Stats lists unexpected replica %q", r.URL)
		}
	}
}
