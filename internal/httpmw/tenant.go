package httpmw

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strings"

	"repro/internal/obs"
	"repro/internal/serving"
)

// tenantHeader names the caller's tenant explicitly (X-PAS-Tenant in
// the documentation; header names match in any case). When absent, the
// middleware falls back to credential headers so keyed clients get
// per-key fair-share without any client change. Both names are spelled
// the way net/http keys them: a name in any other spelling costs a
// canonical copy on every lookup.
const tenantHeader = "X-Pas-Tenant"

// apiKeyHeader is the secondary tenant source for keyed deployments.
const apiKeyHeader = "X-Api-Key"

// maxTenantLen caps tenant ids so a hostile header cannot bloat the
// per-tenant stats table or log lines.
const maxTenantLen = 64

// Tenant resolves the caller's tenant id and stores it on the request
// context for the serving layer's fair-share admission. Order of
// precedence: X-PAS-Tenant, then X-API-Key, then an Authorization
// bearer token — credentials are fingerprinted, never used verbatim,
// so tenant ids stay safe to log. Requests with no usable identity run
// as the shared default tenant. What it resolved is noted on the shared
// response recorder, where the access log outside reads it.
func Tenant() func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := tenantFromRequest(r)
			if rec, ok := w.(*obs.ResponseRecorder); ok {
				rec.NoteTenant(id)
			}
			if id != "" {
				r = r.WithContext(serving.WithTenant(r.Context(), id))
			}
			next.ServeHTTP(w, r)
		})
	}
}

// tenantFromRequest extracts the tenant id the Tenant middleware would
// assign: the sanitized X-PAS-Tenant value, or a fingerprint of the
// request's credential. Empty means anonymous (shared default tenant).
func tenantFromRequest(r *http.Request) string {
	if id := sanitizeTenant(r.Header.Get(tenantHeader)); id != "" {
		return id
	}
	if key := r.Header.Get(apiKeyHeader); key != "" {
		return fingerprintTenant(key)
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		if tok, ok := strings.CutPrefix(auth, "Bearer "); ok && tok != "" {
			return fingerprintTenant(tok)
		}
	}
	return ""
}

// sanitizeTenant accepts only ids that are safe as metric labels and
// log fields: [A-Za-z0-9._-], at most maxTenantLen runes. Anything
// else is treated as absent rather than half-cleaned, so a given
// header always maps to the same tenant.
func sanitizeTenant(id string) string {
	if id == "" || len(id) > maxTenantLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return ""
		}
	}
	return id
}

// fingerprintTenant derives a stable, non-reversible tenant id from a
// credential so API keys and bearer tokens never appear in stats,
// metrics labels, or access logs.
func fingerprintTenant(secret string) string {
	sum := sha256.Sum256([]byte(secret))
	return "key-" + hex.EncodeToString(sum[:6])
}
