package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type item struct {
	I int    `json:"i"`
	S string `json:"s,omitempty"`
}

func openStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, "sha256:jj", false)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func appendItems(t *testing.T, s *Store, n int) {
	t.Helper()
	j, _, err := s.OpenJournal("items")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(item{I: i, S: "record"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func replay(t *testing.T, s *Store) ([]item, *Recovery) {
	t.Helper()
	j, rec, err := s.OpenJournal("items")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	out := make([]item, 0, len(rec.Records))
	for _, p := range rec.Records {
		var it item
		if err := json.Unmarshal(p, &it); err != nil {
			t.Fatalf("replayed record undecodable: %v", err)
		}
		out = append(out, it)
	}
	return out, rec
}

func TestJournalAppendReplay(t *testing.T) {
	s, _ := openStore(t)
	appendItems(t, s, 5)
	items, rec := replay(t, s)
	if rec.DroppedTail != 0 {
		t.Fatalf("clean journal reported %d dropped bytes", rec.DroppedTail)
	}
	if len(items) != 5 {
		t.Fatalf("replayed %d records, want 5", len(items))
	}
	for i, it := range items {
		if it.I != i {
			t.Fatalf("record %d has index %d", i, it.I)
		}
	}
}

// TestJournalTornTailDropped simulates a crash mid-append: the final
// line is truncated at an arbitrary byte. Replay must keep every
// complete record, drop the tail, and allow appending to continue.
func TestJournalTornTailDropped(t *testing.T) {
	s, dir := openStore(t)
	appendItems(t, s, 4)
	path := filepath.Join(dir, "items.journal")
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the last line.
	lines := bytes.SplitAfter(content, []byte("\n"))
	last := lines[len(lines)-2] // final newline makes the last split empty
	cut := len(content) - len(last)/2
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}

	items, rec := replay(t, s)
	if len(items) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(items))
	}
	if rec.DroppedTail == 0 {
		t.Fatal("torn tail not reported")
	}

	// The file must have been truncated back to a clean state so the
	// next append produces a valid journal.
	appendItems(t, s, 1)
	items, rec = replay(t, s)
	if rec.DroppedTail != 0 || len(items) != 4 {
		t.Fatalf("journal not clean after recovery: %d records, %d dropped", len(items), rec.DroppedTail)
	}
}

// TestJournalCorruptLastLineDropped flips a bit in the final record —
// a torn write that still ends in a newline. The checksum catches it
// and replay drops exactly that record.
func TestJournalCorruptLastLineDropped(t *testing.T) {
	s, dir := openStore(t)
	appendItems(t, s, 4)
	path := filepath.Join(dir, "items.journal")
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content[len(content)-4] ^= 0x01
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	items, rec := replay(t, s)
	if len(items) != 3 {
		t.Fatalf("replayed %d records, want 3", len(items))
	}
	if rec.DroppedTail == 0 {
		t.Fatal("corrupt tail not reported")
	}
}

// TestJournalMidCorruptionRefused: damage anywhere before the final
// record means the log cannot be trusted, so replay must fail loudly
// rather than resume from a lie.
func TestJournalMidCorruptionRefused(t *testing.T) {
	s, dir := openStore(t)
	appendItems(t, s, 4)
	path := filepath.Join(dir, "items.journal")
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	content[5] ^= 0x01 // first record's checksum area
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.OpenJournal("items")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-journal corruption not refused: %v", err)
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	s, _ := openStore(t)
	j, _, err := s.OpenJournal("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(item{I: 1}); err == nil {
		t.Fatal("append after close should fail")
	}
}

func TestJournalConcurrentAppends(t *testing.T) {
	s, _ := openStore(t)
	j, _, err := s.OpenJournal("items")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if err := j.Append(item{I: i*100 + k}); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	items, rec := replay(t, s)
	if len(items) != 40 || rec.DroppedTail != 0 {
		t.Fatalf("replayed %d records (%d dropped), want 40 clean", len(items), rec.DroppedTail)
	}
}

func TestRemoveJournal(t *testing.T) {
	s, dir := openStore(t)
	appendItems(t, s, 2)
	if err := s.RemoveJournal("items"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "items.journal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("journal file still present")
	}
	if err := s.RemoveJournal("items"); err != nil {
		t.Fatalf("removing a missing journal should be a no-op: %v", err)
	}
}

func TestEncodeDecodeLine(t *testing.T) {
	payload := []byte(`{"i":3,"s":"x"}`)
	line := encodeLine(payload)
	if line[len(line)-1] != '\n' {
		t.Fatal("encoded line must end in newline")
	}
	got, err := decodeLine(line[:len(line)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestDecodeLineRejectsDamage(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"short":          "abcd",
		"no separator":   "0123456789abcdef",
		"uppercase hex":  "DEADBEEF {}",
		"non-hex":        "zzzzzzzz {}",
		"bad checksum":   "00000000 {\"i\":1}",
		"truncated json": "83a1b2c3 {\"i\"",
	}
	for name, line := range cases {
		if _, err := decodeLine([]byte(line)); err == nil {
			t.Errorf("%s: decodeLine(%q) accepted damage", name, line)
		}
	}
}
