package main

import (
	"testing"

	"unused"
)

func TestSeam(t *testing.T) {
	// Reading Truth makes it a seam; storing to Label does not read it.
	if unused.Seam() != 3 || unused.NewSample().Truth != 1 || (unused.Sample{Label: 3}).Text != "" {
		t.Fatal("seam")
	}
}
