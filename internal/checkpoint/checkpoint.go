// Package checkpoint is a zero-dependency, crash-safe store for staged
// pipeline builds. It persists two kinds of state under one directory:
//
//   - Stage snapshots: whole-stage results (curated prompts, the
//     generated dataset, the trained model) written atomically —
//     write-temp → fsync → rename → fsync(dir) — so a reader never
//     observes a half-written stage. A CRC-checked header line detects
//     payload corruption.
//   - Journals: append-only JSONL logs for loops whose unit of work is
//     one item (the §3.2 Algorithm 1 generation loop). Each line
//     carries its own CRC32 so a crash mid-append is detected on
//     replay: a torn or corrupt *tail* line is dropped and the build
//     resumes at the exact item; corruption anywhere earlier is
//     refused outright.
//
// Every store is keyed by a fingerprint of the build configuration and
// seed. Resuming against a directory written under a different
// fingerprint fails with *StaleError instead of silently mixing two
// builds' state.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// formatVersion identifies the on-disk layout. Bumping it invalidates
// every existing checkpoint (the fingerprint covers it).
const formatVersion = "pas-checkpoint-v1"

// metaFile holds the store identity at the directory root.
const metaFile = "meta.json"

// meta is the persisted store identity.
type meta struct {
	Format      string `json:"format"`
	Fingerprint string `json:"fingerprint"`
}

// StaleError reports a resume attempt against a checkpoint written
// under a different configuration or seed.
type StaleError struct {
	Dir  string
	Have string // fingerprint found in the directory
	Want string // fingerprint of the requested build
}

func (e *StaleError) Error() string {
	return fmt.Sprintf("checkpoint: %s was written by a different build (checkpoint %s, requested %s); rerun without -resume to discard it, or restore the original config and seed",
		e.Dir, e.Have, e.Want)
}

// CorruptError reports unreadable checkpoint content (bad CRC, torn
// header, mid-journal damage). Snapshot corruption is recoverable by
// rebuilding the stage; mid-journal corruption is not.
type CorruptError struct {
	Path   string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s is corrupt: %s", e.Path, e.Detail)
}

// Store is one checkpoint directory. Methods are safe for sequential
// use from one build; individual journals serialize their own appends.
type Store struct {
	dir string
}

// Open creates or reopens the store at dir for a build with the given
// fingerprint.
//
// With resume=false any prior checkpoint state in dir is discarded and
// a fresh store is initialised. With resume=true, existing state is
// kept — but only if its fingerprint matches; a mismatch returns
// *StaleError so two builds are never mixed. Resuming an empty or
// uninitialised directory is equivalent to a fresh start. Stray
// temporary files from an interrupted writer are removed either way.
func Open(dir, fingerprint string, resume bool) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if fingerprint == "" {
		return nil, errors.New("checkpoint: empty fingerprint")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir}

	existing, err := readMeta(dir)
	switch {
	case err != nil && !errors.Is(err, fs.ErrNotExist):
		return nil, err
	case err == nil && resume:
		if existing.Fingerprint != fingerprint {
			return nil, &StaleError{Dir: dir, Have: existing.Fingerprint, Want: fingerprint}
		}
	case err == nil && !resume:
		if err := s.reset(); err != nil {
			return nil, err
		}
	}
	if err := s.removeStrayTemps(); err != nil {
		return nil, err
	}
	if err := writeAtomic(filepath.Join(dir, metaFile), mustJSON(meta{Format: formatVersion, Fingerprint: fingerprint})); err != nil {
		return nil, err
	}
	return s, nil
}

// Attach reopens an existing store without knowing its fingerprint —
// the consumer side (pastrain reading a pasgen checkpoint) trusts the
// directory as-is. It fails if the directory was never initialised.
func Attach(dir string) (*Store, error) {
	if _, err := readMeta(dir); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("checkpoint: %s holds no checkpoint (missing %s)", dir, metaFile)
		}
		return nil, err
	}
	s := &Store{dir: dir}
	if err := s.removeStrayTemps(); err != nil {
		return nil, err
	}
	return s, nil
}

// reset removes every checkpoint artifact (meta, snapshots, journals)
// while leaving unrelated files in the directory alone.
func (s *Store) reset() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: reading %s: %w", s.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == metaFile || strings.HasSuffix(name, snapExt) ||
			strings.HasSuffix(name, journalExt) || strings.HasSuffix(name, tempExt) {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("checkpoint: resetting %s: %w", s.dir, err)
			}
		}
	}
	return nil
}

// removeStrayTemps deletes temp files left by a writer that crashed
// between create and rename — the half-renamed-snapshot case.
func (s *Store) removeStrayTemps() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: reading %s: %w", s.dir, err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tempExt) {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return fmt.Errorf("checkpoint: removing stray temp: %w", err)
			}
		}
	}
	return nil
}

func readMeta(dir string) (meta, error) {
	b, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return meta{}, err
	}
	var m meta
	if err := json.Unmarshal(b, &m); err != nil {
		return meta{}, &CorruptError{Path: filepath.Join(dir, metaFile), Detail: err.Error()}
	}
	if m.Format != formatVersion {
		return meta{}, &CorruptError{Path: filepath.Join(dir, metaFile), Detail: fmt.Sprintf("format %q, want %q", m.Format, formatVersion)}
	}
	return m, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// meta and snapshot envelopes are plain structs; this cannot
		// fail for them.
		panic(fmt.Sprintf("checkpoint: marshal: %v", err))
	}
	return b
}
