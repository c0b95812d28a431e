package serving

import (
	"context"
	"testing"
)

// TestKeyRoundTrip: distinct (prompt, salt, model) triples never share
// a key, including the shapes a plain concatenation would confuse.
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
