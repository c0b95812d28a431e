// Package unused is the unused rule's fixture library, the module's root
// package: every shape the rule reports, every shape it must leave
// alone, and one waiver.
package unused

import (
	"encoding/json"
	"flag"
	"strings"
)

// --- reported ------------------------------------------------------------

func Dead() {} // want `func Dead is never used; delete it`

func countdown(n int) int { // want `func countdown is never used`
	if n == 0 {
		return 0
	}
	return countdown(n - 1) // a declaration's call to itself keeps nothing alive
}

func helper() int { return 1 } // want `func helper is used only by its package's tests; move it into them`

func Internal() int { return 2 } // want `exported func Internal is used only inside package unused; unexport it`

// OwnSeam is called only by this package's external tests: they are its
// own tests, not another package's.
func OwnSeam() int { return 4 } // want `func OwnSeam is used only by its package's tests; move it into them`

// shout only forwards; its callers should call strings.ToUpper.
func shout(s string) string { return strings.ToUpper(s) } // want `func shout only forwards to strings\.ToUpper`

// orphan's only mention is its own method's receiver.
type orphan struct{} // want `type orphan is never used`

func (orphan) work() {} // want `method orphan\.work is never used`

type Config struct {
	Size    int
	Retries int // want `field Config\.Retries is written but never read`
	Spare   int // want `field Config\.Spare is never used`
}

type options struct {
	verbose bool
	dryRun  bool // want `field options\.dryRun is written but never read`
}

// --- not reported --------------------------------------------------------

// Used is called from another package.
func Used(c Config) Result {
	c.Retries = Internal()
	return Result{N: double(c.Size)}
}

// double is live; export_test.go exports it to the external tests.
func double(n int) int { return 2 * n }

// Result is exported API: Used returns it, so it stays exported though
// only this package names it.
type Result struct{ N int }

// Seam is production-dead but another package's tests call it.
func Seam() int { return 3 }

// name satisfies fmt.Stringer-shaped interfaces, so it may be called
// through one.
type name string

func (n name) String() string { return string(n) }

var _ = name("fixture")

// wire reaches encoding/json: its untagged fields are read by reflection.
type wire struct {
	A int
	B string
}

func Encode() ([]byte, error) { return json.Marshal(wire{A: 1, B: "b"}) }

// Trim converts, so it is more than a forwarder.
func Trim(s string) []byte { return []byte(strings.TrimSpace(s)) }

//paslint:allow unused fixture: public API kept for callers outside the module
func Kept() {}

// Flags registers o's fields; only verbose is read.
func Flags(fs *flag.FlagSet) bool {
	var o options
	fs.BoolVar(&o.verbose, "v", false, "verbose")
	fs.BoolVar(&o.dryRun, "n", false, "dry run")
	_ = shout("x")
	return o.verbose
}
