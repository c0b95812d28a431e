package ring

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzProbeStatus: the prober decodes bytes another process wrote, so
// on any ≤4 KiB body parseStatus must not panic, a body that is not a
// JSON object must read as healthy, not draining and with no instance, a
// "pressure" key — what a replica from before the ladder's removal sends
// mid rolling upgrade — must change nothing whatever its value, and the
// instance must be the string sent, whatever its size.
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
		// The reference reading: the two fields by their wire names, and
		// a body encoding/json rejects says nothing at all.
		var ref struct{ Status, Instance string }
		if json.Unmarshal(body, &ref) != nil {
			ref.Status, ref.Instance = "", ""
		}
		want := probeStatus{draining: ref.Status == "draining", instance: ref.Instance}
		if got != want {
			t.Fatalf("body %q read as %+v, want %+v", body, got, want)
		}
	})
}
