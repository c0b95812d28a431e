package ring

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/serving"
)

// FuzzProbeStatus: the prober decodes bytes another process wrote, so
// on any ≤4 KiB body parseStatus must not panic, a body that is not a
// JSON object must read as healthy, not draining, at full service and
// with no instance, an unknown pressure name — "trim" from a replica
// that predates the two-rung ladder, mid rolling upgrade, included —
// must read as full, and the instance must be the string sent, whatever
// its size.
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
		`{"status":"ok","model":"m","instance":"1790000000000000000"}`,
		`{"status":"draining","pressure":"raw","instance":""}`,
		`{"status":"ok","instance":1790000000000000000}`,
		`{"status":"ok","instance":null}`,
		`{"status":"ok","instance":["a"]}`,
		`{"status":"ok","instance":"a","instance":"b"}`,
		`{"status":"ok","instance":"` + strings.Repeat("9", maxStatusBody-40) + `"}`,
		`{"status":"draining","instance":"` + strings.Repeat("9", 2*maxStatusBody) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxStatusBody {
			body = body[:maxStatusBody]
		}
		got := parseStatus(body)
		// The reference reading: the three fields by their wire names,
		// and a body encoding/json rejects says nothing at all.
		var ref struct{ Status, Pressure, Instance string }
		if json.Unmarshal(body, &ref) != nil {
			ref.Status, ref.Pressure, ref.Instance = "", "", ""
		}
		want := probeStatus{
			draining: ref.Status == "draining",
			pressure: map[string]serving.Level{"raw": serving.LevelRaw}[ref.Pressure],
			instance: ref.Instance,
		}
		if got != want {
			t.Fatalf("body %q read as %+v, want %+v", body, got, want)
		}
	})
}
