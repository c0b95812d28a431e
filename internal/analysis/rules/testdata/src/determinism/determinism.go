// Package determinism is the fixture for the determinism analyzer. The
// test widens rules.deterministicPaths to include this package, so the
// in-scope checks fire here exactly as they would in internal/simllm.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// --- flagged: wall clock -------------------------------------------------

func clockRead() int64 {
	return time.Now().UnixNano() // want `time\.Now in deterministic package`
}

// --- flagged: global rand source ----------------------------------------

func globalRand() int {
	return rand.Intn(10) // want `package-level math/rand source`
}

func globalFloat() float64 {
	return rand.Float64() // want `package-level math/rand source`
}

// --- clean: seeded source -----------------------------------------------

func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// --- flagged everywhere: clock-seeded source ----------------------------

func clockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `rand source seeded from the clock` `time\.Now in deterministic package`
}

// --- map iteration ------------------------------------------------------

func mapReturn(m map[string]int) error {
	for k, v := range m {
		if v < 0 {
			return fmt.Errorf("bad %s: %d", k, v) // want `return inside map iteration`
		}
	}
	return nil
}

func mapAppendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside map iteration`
	}
	return keys
}

// clean: the collect-then-sort idiom.
func mapAppendSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mapWrite(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `write inside map iteration`
	}
	return b.String()
}

// clean: order-independent reduction over a map is fine.
func mapSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// --- suppressed ---------------------------------------------------------

// The directive must silence the finding; no want comment here.
func allowedClock() int64 {
	//paslint:allow determinism fixture proves the escape hatch works
	return time.Now().UnixNano()
}

func allowedEOL() int {
	return rand.Intn(3) //paslint:allow determinism fixture proves same-line suppression
}
