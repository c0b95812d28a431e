package unused

import "testing"

func TestHelper(t *testing.T) {
	if helper() != 1 || (&Knobs{Seam: 1}).Total() == 0 {
		t.Fatal("helper")
	}
}
