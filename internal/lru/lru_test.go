package lru

import (
	"testing"
	"testing/quick"
)

func TestRecencyAndEviction(t *testing.T) {
	c := New[string, int](2)
	if c.Put("a", 1) || c.Put("b", 2) {
		t.Fatal("eviction below capacity")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// a is now most recent, so the third key pushes b out.
	if !c.Put("c", 3) {
		t.Fatal("third key into a 2-entry cache evicted nothing")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; the least recently used entry must go")
	}
	if c.Put("a", 10) {
		t.Fatal("overwriting a resident key evicted")
	}
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("a = %d, len = %d after overwrite", v, c.Len())
	}
	// The overwrite made a most recent: c goes next.
	c.Put("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived; an overwrite must refresh recency")
	}
	c.Remove("a")
	c.Remove("never there")
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Fatalf("after Remove: a present %v, len %d", ok, c.Len())
	}
}

// TestAgainstReference: any interleaving of Get, Put and Remove agrees
// with a slice-based reference on contents, eviction verdicts and size.
func TestAgainstReference(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw)%6 + 1
		c := New[uint16, int](capacity)
		var ref []uint16 // most recent first
		vals := map[uint16]int{}
		touch := func(k uint16) bool {
			for i, r := range ref {
				if r == k {
					ref = append(append([]uint16{k}, ref[:i]...), ref[i+1:]...)
					return true
				}
			}
			return false
		}
		for i, op := range ops {
			k := op % 9
			switch op >> 8 % 3 {
			case 0:
				v, ok := c.Get(k)
				if ok != touch(k) || (ok && v != vals[k]) {
					return false
				}
			case 1:
				wantEvict := false
				if !touch(k) {
					ref = append([]uint16{k}, ref...)
					if wantEvict = len(ref) > capacity; wantEvict {
						delete(vals, ref[capacity])
						ref = ref[:capacity]
					}
				}
				vals[k] = i
				if c.Put(k, i) != wantEvict {
					return false
				}
			case 2:
				if touch(k) {
					ref = ref[1:]
					delete(vals, k)
				}
				c.Remove(k)
			}
			if c.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
