//go:build !race

package core

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
