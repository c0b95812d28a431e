package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// tenantTarget fakes a fair-share replica: it sheds every request from
// the flooding tenant, flags every t1 reply the way a replica from
// before the two-rung ladder does mid rolling upgrade ("trim", a value
// this tree never sends), and serves everyone else at full quality — so
// each report row has a distinct signature.
type tenantTarget struct {
	mu   sync.Mutex
	seen map[string]int // tenant header value -> request count
	srv  *httptest.Server
}

func newTenantTarget(t *testing.T) *tenantTarget {
	t.Helper()
	tt := &tenantTarget{seen: make(map[string]int)}
	tt.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get("X-PAS-Tenant")
		tt.mu.Lock()
		tt.seen[tenant]++
		tt.mu.Unlock()
		switch tenant {
		case "t0":
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		case "t1":
			w.Header().Set("X-PAS-Degraded", "trim")
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"augmented": "p [aug]"})
	}))
	t.Cleanup(tt.srv.Close)
	return tt
}

// TestRunTenantsSkewAndRows: a skewed multi-tenant run labels every
// request, concentrates traffic on t0, and reports per-tenant shed and
// degraded counts that sum to the top-line numbers; any non-empty
// X-PAS-Degraded, a foreign value included, counts as degraded.
func TestRunTenantsSkewAndRows(t *testing.T) {
	tt := newTenantTarget(t)
	rep, err := Run(context.Background(), Config{
		Target:      tt.srv.URL,
		Prompts:     prompts(50),
		Requests:    300,
		Concurrency: 4,
		Seed:        11,
		Tenants:     3,
		TenantSkew:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 300 || rep.Errors != 0 {
		t.Fatalf("requests=%d errors=%d (first: %s)", rep.Requests, rep.Errors, rep.FirstError)
	}
	if rep.TenantSkew != 10 {
		t.Fatalf("tenant_skew = %v, want 10", rep.TenantSkew)
	}
	if len(rep.Tenants) != 3 {
		t.Fatalf("tenant rows = %+v, want 3", rep.Tenants)
	}
	rows := make(map[string]TenantReport, len(rep.Tenants))
	total, shed, degraded := 0, 0, 0
	for i, row := range rep.Tenants {
		if i > 0 && rep.Tenants[i-1].Tenant >= row.Tenant {
			t.Fatalf("rows not sorted by tenant: %+v", rep.Tenants)
		}
		rows[row.Tenant] = row
		total += row.Requests
		shed += row.Shed
		degraded += row.Degraded
	}
	if total != rep.Requests || shed != rep.Shed || degraded != rep.Degraded {
		t.Fatalf("rows don't sum to totals: rows(%d, %d, %d) report(%d, %d, %d)",
			total, shed, degraded, rep.Requests, rep.Shed, rep.Degraded)
	}
	// Skew 10 over 3 tenants puts ~83% of traffic on t0.
	if rows["t0"].Requests <= rows["t1"].Requests+rows["t2"].Requests {
		t.Fatalf("skew did not concentrate on t0: %+v", rep.Tenants)
	}
	// The fake sheds all of t0, flags all of t1, serves t2 clean.
	if r := rows["t0"]; r.Shed != r.Requests || r.LatencyP50Ms != 0 {
		t.Fatalf("t0 row: %+v, want fully shed with no latency window", r)
	}
	if r := rows["t1"]; r.Degraded != r.Requests || r.LatencyP50Ms <= 0 {
		t.Fatalf("t1 row: %+v, want all-degraded with quantiles", r)
	}
	if r := rows["t2"]; r.Shed != 0 || r.Degraded != 0 {
		t.Fatalf("t2 row: %+v, want clean", r)
	}
	// The wire saw exactly the three labels, never an anonymous request.
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.seen[""] != 0 || len(tt.seen) != 3 {
		t.Fatalf("tenant headers seen on the wire: %v", tt.seen)
	}
}

// TestRunWithoutTenantsStaysAnonymous: Tenants=0 sends no header and
// reports no tenant rows — the pre-tenant report shape byte-for-byte.
func TestRunWithoutTenantsStaysAnonymous(t *testing.T) {
	tt := newTenantTarget(t)
	rep, err := Run(context.Background(), Config{
		Target:      tt.srv.URL,
		Prompts:     prompts(10),
		Requests:    20,
		Concurrency: 2,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants != nil || rep.TenantSkew != 0 {
		t.Fatalf("anonymous run grew tenant fields: %+v", rep)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tenants", "tenant_skew"} {
		if _, ok := jsonKeys(t, raw)[key]; ok {
			t.Fatalf("anonymous report leaked %q: %s", key, raw)
		}
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if len(tt.seen) != 1 || tt.seen[""] != 20 {
		t.Fatalf("anonymous run sent tenant headers: %v", tt.seen)
	}
}

func jsonKeys(t *testing.T, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}
