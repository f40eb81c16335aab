//go:build !race

package correlate

const raceEnabled = false
