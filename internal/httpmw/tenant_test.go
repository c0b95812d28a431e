package httpmw

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/serving"
)

func tenantRequest(hdr, val string) *http.Request {
	r := httptest.NewRequest("POST", "/v1/augment", nil)
	if hdr != "" {
		r.Header.Set(hdr, val)
	}
	return r
}

func TestTenantFromRequestPrecedence(t *testing.T) {
	cases := []struct {
		name string
		set  func(*http.Request)
		want string // "" = anonymous; "key-" prefix = fingerprint expected
	}{
		{"explicit header", func(r *http.Request) {
			r.Header.Set(TenantHeader, "acme-prod")
		}, "acme-prod"},
		{"header beats api key", func(r *http.Request) {
			r.Header.Set(TenantHeader, "acme")
			r.Header.Set("X-API-Key", "s3cret")
		}, "acme"},
		{"api key fingerprinted", func(r *http.Request) {
			r.Header.Set("X-API-Key", "s3cret")
		}, "key-"},
		{"bearer token fingerprinted", func(r *http.Request) {
			r.Header.Set("Authorization", "Bearer tok-123")
		}, "key-"},
		{"basic auth ignored", func(r *http.Request) {
			r.Header.Set("Authorization", "Basic dXNlcjpwdw==")
		}, ""},
		{"anonymous", func(r *http.Request) {}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tenantRequest("", "")
			tc.set(r)
			got := TenantFromRequest(r)
			if tc.want == "key-" {
				if !strings.HasPrefix(got, "key-") || len(got) != len("key-")+12 {
					t.Fatalf("tenant = %q, want a key- fingerprint", got)
				}
				return
			}
			if got != tc.want {
				t.Fatalf("tenant = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestTenantFingerprintNeverEchoesSecret: credentials map to stable
// ids that do not contain the secret, so tenant ids are loggable.
func TestTenantFingerprintNeverEchoesSecret(t *testing.T) {
	a := TenantFromRequest(tenantRequest("X-API-Key", "super-secret-key"))
	b := TenantFromRequest(tenantRequest("X-API-Key", "super-secret-key"))
	other := TenantFromRequest(tenantRequest("X-API-Key", "different"))
	if a != b {
		t.Fatalf("same key, different tenants: %q vs %q", a, b)
	}
	if a == other {
		t.Fatal("distinct keys collided")
	}
	if strings.Contains(a, "secret") {
		t.Fatalf("tenant id %q leaks the credential", a)
	}
}

func TestTenantSanitization(t *testing.T) {
	cases := []struct {
		raw, want string
	}{
		{"ok_id-1.2", "ok_id-1.2"},
		{"has space", ""},
		{"semi;colon", ""},
		{"läbel", ""},
		{strings.Repeat("x", 65), ""},
		{strings.Repeat("x", 64), strings.Repeat("x", 64)},
	}
	for _, tc := range cases {
		if got := sanitizeTenant(tc.raw); got != tc.want {
			t.Errorf("sanitizeTenant(%q) = %q, want %q", tc.raw, got, tc.want)
		}
	}
}

// TestTenantMiddlewareTagsContext: the middleware stores the resolved
// id where serving.TenantFrom finds it; anonymous requests keep the
// shared default tenant.
func TestTenantMiddlewareTagsContext(t *testing.T) {
	var seen string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = serving.TenantFrom(r.Context())
	}), Tenant())

	r := tenantRequest(TenantHeader, "acme")
	h.ServeHTTP(httptest.NewRecorder(), r)
	if seen != "acme" {
		t.Fatalf("tenant in ctx = %q, want acme", seen)
	}

	h.ServeHTTP(httptest.NewRecorder(), tenantRequest("", ""))
	if seen != serving.DefaultTenant {
		t.Fatalf("anonymous tenant = %q, want %q", seen, serving.DefaultTenant)
	}
}

// TestLoggingIncludesTenantAndDegradeLevel: the access line carries the
// tenant and the X-PAS-Degraded value as sent, and any non-empty one
// counts as degraded, not just "1" — here "trim", which a proxy relays
// from a replica that predates the two-rung ladder, mid rolling upgrade.
func TestLoggingIncludesTenantAndDegradeLevel(t *testing.T) {
	var buf bytes.Buffer
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-PAS-Degraded", "trim")
	}), Logging(log.New(&buf, "", 0)))
	h.ServeHTTP(httptest.NewRecorder(), tenantRequest(TenantHeader, "acme"))
	for _, want := range []string{`"tenant":"acme"`, `"degrade_level":"trim"`, `"degraded":true`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("access line %s missing %s", buf.String(), want)
		}
	}
}

// TestLoggingReadsTenantFromRecorder: with Tenant inside it,
// Logging writes the id Tenant noted on the shared recorder, and that is
// the id it resolves for itself when no Tenant middleware ran — the
// access line is the same either way, for every source of identity.
func TestLoggingReadsTenantFromRecorder(t *testing.T) {
	durMs := regexp.MustCompile(`"dur_ms":[^,}]*`)
	accessLine := func(r *http.Request, inner ...func(http.Handler) http.Handler) string {
		var buf bytes.Buffer
		mws := append([]func(http.Handler) http.Handler{Logging(log.New(&buf, "", 0))}, inner...)
		Chain(okHandler(), mws...).ServeHTTP(httptest.NewRecorder(), r)
		return durMs.ReplaceAllString(buf.String(), "")
	}
	for _, tc := range []struct{ hdr, val, want string }{
		{"", "", ""},
		{TenantHeader, "acme", `,"tenant":"acme"`},
		{TenantHeader, "not a valid id", ""},
		{apiKeyHeader, "sk-live-123", `,"tenant":"` + fingerprintTenant("sk-live-123") + `"`},
		{"Authorization", "Bearer tok-9", `,"tenant":"` + fingerprintTenant("tok-9") + `"`},
	} {
		alone := accessLine(tenantRequest(tc.hdr, tc.val))
		// resolveOnce fails the request's second resolution: it empties the
		// headers Tenant has read by the time Logging writes its line.
		resolveOnce := func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				next.ServeHTTP(w, r)
				clear(r.Header)
			})
		}
		noted := accessLine(tenantRequest(tc.hdr, tc.val), resolveOnce, Tenant())
		if alone != noted {
			t.Errorf("%s=%q: access line without Tenant %s, with it %s", tc.hdr, tc.val, alone, noted)
		}
		if got := strings.Contains(noted, `"tenant"`); got != (tc.want != "") || !strings.Contains(noted, tc.want) {
			t.Errorf("%s=%q: access line %s, want tenant field %q", tc.hdr, tc.val, noted, tc.want)
		}
	}
}

// TestConcurrencyLimitHintPricesRetryAfter: the shed response carries
// the dynamic hint instead of the constant 1.
func TestConcurrencyLimitHintPricesRetryAfter(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	})
	h := Chain(slow, ConcurrencyLimitHint(1, func() int { return 7 }))

	go h.ServeHTTP(httptest.NewRecorder(), tenantRequest("", ""))
	<-entered
	defer close(block)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, tenantRequest("", ""))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
}

// FuzzTenantHeader: the tenant id becomes a metric label, a log field
// and a stats-table key, and two of its three sources are credentials.
// Whatever the headers hold, the id is empty, or ≤64 bytes of
// [A-Za-z0-9._-] taken from X-PAS-Tenant, or the key-<12 hex>
// fingerprint — never a credential as sent.
func FuzzTenantHeader(f *testing.F) {
	f.Add("acme", "", "")
	f.Add("", "sk-live-0123456789", "")
	f.Add("", "", "Bearer tok.en-value")
	f.Add("not a label", "sk-live-0123456789", "Bearer other")
	f.Add(strings.Repeat("x", maxTenantLen+1), "", "Bearer ")
	f.Add("a/b", "", "bearer lowercase-scheme")
	f.Fuzz(func(t *testing.T, tenant, apiKey, auth string) {
		r := httptest.NewRequest("POST", "/v1/augment", nil)
		r.Header[TenantHeader] = []string{tenant}
		r.Header[apiKeyHeader] = []string{apiKey}
		r.Header["Authorization"] = []string{auth}
		id := TenantFromRequest(r)
		if id == "" {
			return
		}
		if len(id) > maxTenantLen || strings.Trim(id, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-") != "" {
			t.Fatalf("tenant id %q is not a safe label", id)
		}
		if id == tenant {
			return // the caller's own explicit, sanitized choice
		}
		hexPart, isKey := strings.CutPrefix(id, "key-")
		if !isKey || len(hexPart) != 12 || strings.Trim(hexPart, "0123456789abcdef") != "" {
			t.Fatalf("tenant id %q is neither the X-PAS-Tenant value nor a fingerprint", id)
		}
		if id == apiKey || id == strings.TrimPrefix(auth, "Bearer ") {
			t.Fatalf("tenant id %q is the credential as sent", id)
		}
	})
}
