package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode hammers the journal line parser with arbitrary
// bytes. Invariants: decodeLine never panics; any line it accepts
// re-encodes (via encodeLine) to a line that decodes to the identical
// payload, so recovery can never launder a damaged record into a
// different valid one.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("abcd"))
	f.Add(encodeLine([]byte(`{"i":0}`)))
	f.Add(encodeLine([]byte(`{"i":12,"aug":"Provide context. Include examples.","src":"regenerated:2"}`)))
	f.Add([]byte("00000000 {}"))
	f.Add([]byte("DEADBEEF {\"i\":1}"))
	f.Add([]byte("zzzzzzzz payload"))
	f.Add([]byte("0123456789abcdef no separator here"))
	f.Add([]byte("83a1b2c3 {\"i\""))
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0x20, 0x7b, 0x7d})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Journal replay hands decodeLine newline-free slices; strip
		// one trailing newline the way the replay loop does.
		line := bytes.TrimSuffix(data, []byte("\n"))
		payload, err := decodeLine(line)
		if err != nil {
			return
		}
		reencoded := encodeLine(payload)
		again, err := decodeLine(reencoded[:len(reencoded)-1])
		if err != nil {
			t.Fatalf("re-encoded accepted line rejected: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("round trip changed payload: %q -> %q", payload, again)
		}
	})
}
