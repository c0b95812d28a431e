package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	N     int      `json:"n"`
	Words []string `json:"words"`
}

func TestSnapshotRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), "sha256:aa", false)
	if err != nil {
		t.Fatal(err)
	}
	in := payload{N: 7, Words: []string{"a", "b"}}
	if err := s.WriteSnapshot("stage", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.LoadSnapshot("stage", &out)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if out.N != in.N || len(out.Words) != 2 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestLoadSnapshotMissing(t *testing.T) {
	s, err := Open(t.TempDir(), "sha256:aa", false)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.LoadSnapshot("absent", &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("missing snapshot reported present")
	}
}

func TestSnapshotOverwriteIsAtomic(t *testing.T) {
	s, err := Open(t.TempDir(), "sha256:aa", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.WriteSnapshot("stage", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	var out payload
	if ok, err := s.LoadSnapshot("stage", &out); err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if out.N != 2 {
		t.Fatalf("got %d, want last write 2", out.N)
	}
}

func TestCorruptSnapshotDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "sha256:aa", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot("stage", payload{N: 1, Words: []string{"hello", "world"}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stage.snap")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x20 // flip a payload bit
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	_, err = s.LoadSnapshot("stage", &out)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupted snapshot not detected: %v", err)
	}
}

func TestHalfRenamedSnapshotIgnoredAndCleaned(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash between temp-write and rename: only the temp
	// file exists.
	if err := os.WriteFile(filepath.Join(dir, "stage.snap.tmp"), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, "sha256:aa", true)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.LoadSnapshot("stage", &out)
	if err != nil || ok {
		t.Fatalf("half-renamed snapshot should read as absent: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "stage.snap.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stray temp file not cleaned up")
	}
}

func TestSnapshotBytesRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), "sha256:aa", false)
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"model":"weights"}`)
	if err := s.WriteSnapshotBytes("model", raw); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.LoadSnapshotBytes("model")
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if string(got) != string(raw) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestResumeFingerprintMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, "sha256:build-one", false); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, "sha256:build-two", true)
	var stale *StaleError
	if !errors.As(err, &stale) {
		t.Fatalf("want StaleError, got %v", err)
	}
	if !strings.Contains(err.Error(), "sha256:build-one") || !strings.Contains(err.Error(), "sha256:build-two") {
		t.Errorf("stale error should name both fingerprints: %v", err)
	}
}

func TestFreshOpenDiscardsOldBuild(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, "sha256:one", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.WriteSnapshot("stage", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	j, _, err := s1.OpenJournal("items")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh (non-resume) open under a new fingerprint starts clean.
	s2, err := Open(dir, "sha256:two", false)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if ok, err := s2.LoadSnapshot("stage", &out); err != nil || ok {
		t.Fatalf("old snapshot survived reset: ok=%v err=%v", ok, err)
	}
	_, rec, err := s2.OpenJournal("items")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("old journal survived reset: %d records", len(rec.Records))
	}
}

func TestResumeEmptyDirIsFreshStart(t *testing.T) {
	if _, err := Open(t.TempDir(), "sha256:aa", true); err != nil {
		t.Fatalf("resume of an empty dir should succeed: %v", err)
	}
}

func TestAttach(t *testing.T) {
	dir := t.TempDir()
	if _, err := Attach(dir); err == nil {
		t.Fatal("attach to uninitialised dir should fail")
	}
	if _, err := Open(dir, "sha256:aa", false); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(dir); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	type cfg struct {
		Seed int64
		Size int
	}
	a, err := Fingerprint(cfg{Seed: 1, Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(cfg{Seed: 2, Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Fingerprint(cfg{Seed: 1, Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different seeds should fingerprint differently")
	}
	if a != c {
		t.Error("identical configs should fingerprint identically")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Errorf("fingerprint %q missing scheme prefix", a)
	}
}
