//go:build !race

package pas

const raceEnabled = false
