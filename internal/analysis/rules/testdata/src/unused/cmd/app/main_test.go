package main

import (
	"testing"

	"unused"
)

func TestSeam(t *testing.T) {
	if unused.Seam() != 3 {
		t.Fatal("seam")
	}
}
