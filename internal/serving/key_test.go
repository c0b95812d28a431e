package serving

import (
	"context"
	"testing"
)

// TestKeyRoundTrip: SplitKey must invert Key for NUL-free components —
// the contract the ring routing tier relies on to agree byte-for-byte
// with the cache on the shard key.
func TestKeyRoundTrip(t *testing.T) {
	cases := []struct{ prompt, salt, model string }{
		{"write a sort in Go", "", "pas-sim"},
		{"", "", ""},
		{"prompt with\nnewlines\tand spaces", "42", "m"},
		{"unicode ✓ プロンプト", "salt", "base-7b"},
		{"a", "bc", ""}, // the collision shape a plain concat would confuse
		{"ab", "c", ""},
	}
	seen := make(map[string]bool)
	for _, c := range cases {
		k := Key(c.prompt, c.salt, c.model)
		if seen[k] {
			t.Fatalf("Key(%q,%q,%q) collides with an earlier case", c.prompt, c.salt, c.model)
		}
		seen[k] = true
		p, s, m, ok := SplitKey(k)
		if !ok {
			t.Fatalf("SplitKey(Key(%q,%q,%q)) not ok", c.prompt, c.salt, c.model)
		}
		if p != c.prompt || s != c.salt || m != c.model {
			t.Fatalf("round trip (%q,%q,%q) -> (%q,%q,%q)", c.prompt, c.salt, c.model, p, s, m)
		}
	}
}

// TestSplitKeyMalformed: strings that are not NUL-joined triples are
// rejected rather than misparsed.
func TestSplitKeyMalformed(t *testing.T) {
	for _, k := range []string{"", "no separators", "one\x00separator"} {
		if _, _, _, ok := SplitKey(k); ok {
			t.Fatalf("SplitKey(%q) = ok, want malformed", k)
		}
	}
}

// TestKeyMatchesCache: the exported Key must be the exact key the cache
// shards on — a Do that populated the cache under Key(k) is a hit for a
// direct probe of the same bytes.
func TestKeyMatchesCache(t *testing.T) {
	core, err := New(func(prompt, salt string) string { return "c:" + prompt }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Do(context.Background(), "p", "s", "m"); err != nil {
		t.Fatal(err)
	}
	if v, ok := core.cache.Get(Key("p", "s", "m")); !ok || v != "c:p" {
		t.Fatalf("cache.Get(Key(...)) = %q, %v; want \"c:p\", true", v, ok)
	}
}
