// Package errwrap is the fixture for the error-hygiene analyzer:
// discarded error returns and %v/%s-flattened errors at the resilience
// classification boundary. The test adds this package to
// rules.errWrapPaths so the wrap rule is in force.
package errwrap

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

var errUpstream = errors.New("upstream overloaded")

func failing() error            { return errUpstream }
func pair() (int, error)        { return 0, errUpstream }
func writeTo(w io.Writer) error { _, err := w.Write([]byte("x")); return err }

// --- rule 1: discarded error returns ------------------------------------

func discards(w io.Writer) {
	failing()      // want `call discards its error result`
	pair()         // want `call discards its error result`
	writeTo(w)     // want `call discards its error result`
	io.WriteString(w, "x") // want `call discards its error result`
}

// clean: handled, explicitly discarded, deferred, printed to terminal.
func handled(w io.Writer, f *os.File) error {
	if err := failing(); err != nil {
		return err
	}
	_ = failing()
	_, _ = pair()
	defer f.Close()
	fmt.Println("terminal printing is exempt")
	var b strings.Builder
	fmt.Fprintf(&b, "in-memory writers are exempt")
	fmt.Fprintf(os.Stderr, "process streams are exempt")
	return nil
}

// flagged: writes to a real file can fail meaningfully.
func fileWrite(f *os.File) {
	fmt.Fprintf(f, "results: %d\n", 42) // want `call discards its error result`
}

// suppressed.
func allowedDiscard() {
	failing() //paslint:allow errwrap fixture: result recorded elsewhere
}

// --- rule 2: wrapping across the classification boundary ----------------

func flattens(err error) error {
	return fmt.Errorf("augment failed: %v", err) // want `error formatted with %v loses its classification`
}

func flattensString(err error) error {
	return fmt.Errorf("augment failed: %s", err) // want `error formatted with %s loses its classification`
}

// clean: %w preserves Unwrap for Classify.
func wraps(err error) error {
	return fmt.Errorf("augment failed: %w", err)
}

// clean: non-error args may use any verb.
func describes(name string, n int) error {
	return fmt.Errorf("backend %s rejected %d prompts", name, n)
}

// suppressed: deliberate flattening at an API edge.
func allowedFlatten(err error) error {
	return fmt.Errorf("public message: %v", err) //paslint:allow errwrap fixture: identity must not leak to clients
}
