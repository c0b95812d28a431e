package ring

import (
	"encoding/json"
	"testing"

	"repro/internal/serving"
)

// FuzzProbeStatus: the prober decodes bytes another process wrote, so
// on any ≤4 KiB body parseStatus must not panic, a body that is not a
// JSON object must read as healthy, not draining, at full service, and
// an unknown pressure name must read as full.
func FuzzProbeStatus(f *testing.F) {
	for _, seed := range []string{
		"",
		"ok",
		`{"status":"ok","model":"m"}`,
		`{"status":"draining","model":"m"}`,
		`{"status":"ok","pressure":"trim"}`,
		`{"status":"draining","pressure":"raw"}`,
		`{"status":"ok","pressure":"full"}`,
		`{"status":"ok","pressure":"RAW"}`,
		`{"status":"draining","pressure":7}`,
		`{"status":"draining"`,
		`["draining"]`,
		`{"status":"ok","status":"draining"}`,
		"\xff\xfe{\"status\":\"draining\"}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxStatusBody {
			body = body[:maxStatusBody]
		}
		draining, pressure := parseStatus(body)
		// The reference reading: the two fields by their wire names, and
		// a body encoding/json rejects says nothing at all.
		var ref struct{ Status, Pressure string }
		if json.Unmarshal(body, &ref) != nil {
			ref.Status, ref.Pressure = "", ""
		}
		want := map[string]serving.Level{"trim": serving.LevelTrim, "raw": serving.LevelRaw}[ref.Pressure]
		if draining != (ref.Status == "draining") || pressure != want {
			t.Fatalf("body %q read as draining=%v pressure=%v, want %v %v", body, draining, pressure, ref.Status == "draining", want)
		}
	})
}
