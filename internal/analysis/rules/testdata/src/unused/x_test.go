package unused_test

import (
	"testing"

	"unused"
)

// TestOwn reaches the package through an export_test.go hook and an
// export nothing else calls.
func TestOwn(t *testing.T) {
	if unused.Double(2) != 4 || unused.OwnSeam() != 4 {
		t.Fatal("own")
	}
}
