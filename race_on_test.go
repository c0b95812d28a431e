//go:build race

package pas

// raceEnabled: under the race detector sync.Pool drops one Put in four
// on purpose, so a guard on bytes allocated per request cannot hold.
const raceEnabled = true
