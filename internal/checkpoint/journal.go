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
	"sync"
)

const journalExt = ".journal"

// Journal is an append-only JSONL log of per-item results. Each line is
// `crc32(payload) in 8 hex digits, one space, compact JSON payload`.
// Appends are serialized and fsynced, so after Append returns the
// record survives a crash; a crash *during* an append leaves a torn
// tail that replay detects and drops. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool
}

// Recovery reports what replaying an existing journal found.
type Recovery struct {
	// Records holds the decoded payload of every intact line, in
	// append order.
	Records [][]byte
	// DroppedTail is the number of bytes discarded from the end of the
	// file because the final line was torn or corrupt (a crash
	// mid-append). Zero means the journal was clean.
	DroppedTail int
}

// OpenJournal opens (creating if absent) the journal under name,
// replaying any existing records first. A torn or corrupt final line —
// the signature of a crash mid-append — is truncated away and counted
// in Recovery.DroppedTail; corruption before the final line means the
// log cannot be trusted and returns *CorruptError.
func (s *Store) OpenJournal(name string) (*Journal, *Recovery, error) {
	path := filepath.Join(s.dir, name+journalExt)
	rec := &Recovery{}
	content, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("checkpoint: reading journal %s: %w", name, err)
	}

	goodEnd := 0
	for off := 0; off < len(content); {
		nl := bytes.IndexByte(content[off:], '\n')
		if nl < 0 {
			// Unterminated final line: torn write.
			break
		}
		payload, err := decodeLine(content[off : off+nl])
		if err != nil {
			// A bad line is only recoverable if nothing follows it.
			if off+nl+1 < len(content) {
				return nil, nil, &CorruptError{Path: path, Detail: fmt.Sprintf("record %d (offset %d): %v (followed by more records)", len(rec.Records), off, err)}
			}
			break
		}
		rec.Records = append(rec.Records, payload)
		off += nl + 1
		goodEnd = off
	}
	rec.DroppedTail = len(content) - goodEnd
	if rec.DroppedTail > 0 {
		if err := os.Truncate(path, int64(goodEnd)); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: truncating torn journal tail: %w", err)
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: opening journal %s: %w", name, err)
	}
	return &Journal{f: f, path: path}, rec, nil
}

// RemoveJournal deletes the journal under name; missing is not an
// error. Call it after the stage's snapshot is committed.
func (s *Store) RemoveJournal(name string) error {
	err := os.Remove(filepath.Join(s.dir, name+journalExt))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("checkpoint: removing journal %s: %w", name, err)
	}
	return nil
}

// Append marshals v as compact JSON and commits it as one journal
// line. The record is durable (fsynced) when Append returns nil.
func (j *Journal) Append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding journal record: %w", err)
	}
	line := encodeLine(payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("checkpoint: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("checkpoint: appending to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing %s: %w", j.path, err)
	}
	return nil
}

// Close releases the journal file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", j.path, err)
	}
	return nil
}

// crcHexLen is the fixed width of the line checksum prefix.
const crcHexLen = 8

// encodeLine frames one journal payload: 8 lowercase-hex CRC32 digits,
// a space, the payload, a newline. The payload must not contain a
// newline (compact JSON never does).
func encodeLine(payload []byte) []byte {
	out := make([]byte, 0, crcHexLen+1+len(payload)+1)
	out = appendCRCHex(out, crc32.ChecksumIEEE(payload))
	out = append(out, ' ')
	out = append(out, payload...)
	out = append(out, '\n')
	return out
}

// decodeLine parses one journal line (without its trailing newline)
// and returns the payload after verifying its checksum. Errors mean
// the line is torn or corrupt.
func decodeLine(line []byte) ([]byte, error) {
	if len(line) < crcHexLen+1 {
		return nil, fmt.Errorf("line too short (%d bytes)", len(line))
	}
	if line[crcHexLen] != ' ' {
		return nil, errors.New("missing checksum separator")
	}
	want, err := parseCRCHex(line[:crcHexLen])
	if err != nil {
		return nil, err
	}
	payload := line[crcHexLen+1:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("checksum mismatch: line says %08x, payload is %08x", want, got)
	}
	return payload, nil
}

func appendCRCHex(dst []byte, crc uint32) []byte {
	const hexDigits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(crc>>uint(shift))&0xf])
	}
	return dst
}

func parseCRCHex(b []byte) (uint32, error) {
	var v uint32
	for _, c := range b {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			// Uppercase hex is rejected on purpose: the writer only
			// emits lowercase, so anything else is damage.
			return 0, fmt.Errorf("invalid checksum digit %q", c)
		}
		v = v<<4 | d
	}
	return v, nil
}
