package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

const (
	snapExt = ".snap"
	tempExt = ".tmp"
)

// snapHeader is the first line of a snapshot file; the payload follows
// verbatim. The CRC and size let a reader prove the payload is exactly
// what the writer committed.
type snapHeader struct {
	Format string `json:"format"`
	Name   string `json:"name"`
	CRC32  uint32 `json:"crc32"`
	Size   int    `json:"size"`
}

// WriteSnapshot atomically persists v (as JSON) under name. The write
// path is crash-safe: the content is written to a temp file, fsynced,
// renamed over the final name, and the directory is fsynced so the
// rename itself survives a crash. A reader therefore sees either the
// previous snapshot or the new one, never a mixture.
func (s *Store) WriteSnapshot(name string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding snapshot %s: %w", name, err)
	}
	return s.WriteSnapshotBytes(name, payload)
}

// WriteSnapshotBytes is WriteSnapshot for a pre-encoded payload (a
// saved model, for instance). The bytes are stored verbatim.
func (s *Store) WriteSnapshotBytes(name string, payload []byte) error {
	header := mustJSON(snapHeader{
		Format: formatVersion,
		Name:   name,
		CRC32:  crc32.ChecksumIEEE(payload),
		Size:   len(payload),
	})
	content := make([]byte, 0, len(header)+1+len(payload))
	content = append(content, header...)
	content = append(content, '\n')
	content = append(content, payload...)
	return writeAtomic(s.snapPath(name), content)
}

// LoadSnapshot reads the snapshot written under name into v. It
// returns ok=false (and no error) when the snapshot does not exist,
// and *CorruptError when the file exists but fails verification — the
// caller should treat that stage as absent and rebuild it.
func (s *Store) LoadSnapshot(name string, v any) (ok bool, err error) {
	payload, ok, err := s.LoadSnapshotBytes(name)
	if err != nil || !ok {
		return false, err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return false, &CorruptError{Path: s.snapPath(name), Detail: fmt.Sprintf("decoding payload: %v", err)}
	}
	return true, nil
}

// LoadSnapshotBytes reads and verifies the raw payload written under
// name. Missing snapshots return ok=false with no error.
func (s *Store) LoadSnapshotBytes(name string) (payload []byte, ok bool, err error) {
	path := s.snapPath(name)
	content, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("checkpoint: reading snapshot %s: %w", name, err)
	}
	nl := bytes.IndexByte(content, '\n')
	if nl < 0 {
		return nil, false, &CorruptError{Path: path, Detail: "missing header line"}
	}
	var h snapHeader
	if err := json.Unmarshal(content[:nl], &h); err != nil {
		return nil, false, &CorruptError{Path: path, Detail: fmt.Sprintf("decoding header: %v", err)}
	}
	if h.Format != formatVersion {
		return nil, false, &CorruptError{Path: path, Detail: fmt.Sprintf("format %q, want %q", h.Format, formatVersion)}
	}
	if h.Name != name {
		return nil, false, &CorruptError{Path: path, Detail: fmt.Sprintf("snapshot name %q, want %q", h.Name, name)}
	}
	payload = content[nl+1:]
	if len(payload) != h.Size {
		return nil, false, &CorruptError{Path: path, Detail: fmt.Sprintf("payload is %d bytes, header says %d", len(payload), h.Size)}
	}
	if crc := crc32.ChecksumIEEE(payload); crc != h.CRC32 {
		return nil, false, &CorruptError{Path: path, Detail: fmt.Sprintf("payload crc32 %08x, header says %08x", crc, h.CRC32)}
	}
	return payload, true, nil
}

// RemoveSnapshot deletes the snapshot under name; missing is not an
// error.
func (s *Store) RemoveSnapshot(name string) error {
	err := os.Remove(s.snapPath(name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("checkpoint: removing snapshot %s: %w", name, err)
	}
	return nil
}

func (s *Store) snapPath(name string) string {
	return filepath.Join(s.dir, name+snapExt)
}

// writeAtomic commits content to path via temp-write, fsync, rename,
// and directory fsync. On any failure the temp file is removed; the
// previous content of path, if any, is untouched.
func writeAtomic(path string, content []byte) (err error) {
	tmp := path + tempExt
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: creating %s: %w", tmp, err)
	}
	defer func() {
		if err != nil {
			if rmErr := os.Remove(tmp); rmErr != nil && !errors.Is(rmErr, fs.ErrNotExist) {
				err = errors.Join(err, rmErr)
			}
		}
	}()
	if _, err = f.Write(content); err != nil {
		err = errors.Join(fmt.Errorf("checkpoint: writing %s: %w", tmp, err), f.Close())
		return err
	}
	if err = f.Sync(); err != nil {
		err = errors.Join(fmt.Errorf("checkpoint: syncing %s: %w", tmp, err), f.Close())
		return err
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmp, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: committing %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-committed rename survives a
// crash. Filesystems that refuse to fsync directories are tolerated:
// the rename is still atomic, just not yet durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: opening %s: %w", dir, err)
	}
	syncErr := d.Sync()
	if err := d.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", dir, err)
	}
	if syncErr != nil && !errors.Is(syncErr, errors.ErrUnsupported) {
		return fmt.Errorf("checkpoint: syncing %s: %w", dir, syncErr)
	}
	return nil
}
