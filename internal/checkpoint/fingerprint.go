package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint derives the store key for a build configuration: the
// SHA-256 of the format version and the configuration's canonical JSON.
// Any field that reaches the JSON encoding — corpus size, seed, caps,
// model names — changes the fingerprint, which is exactly the property
// that keeps a resumed build from silently mixing state produced under
// different settings. Runtime-only knobs (worker counts, fault gates,
// progress sinks) must be excluded by the caller, either zeroed or
// tagged `json:"-"`, since they cannot change the build's output.
func Fingerprint(cfg any) (string, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("checkpoint: fingerprinting config: %w", err)
	}
	h := sha256.New()
	// hash.Hash.Write never fails (documented contract).
	_, _ = h.Write([]byte(formatVersion))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write(b)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)[:16]), nil
}
