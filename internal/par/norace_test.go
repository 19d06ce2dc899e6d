//go:build !race

package par

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
