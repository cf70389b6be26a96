//go:build !race

package query

// raceEnabled reports a -race build, whose instrumentation allocates
// beside the code it measures.
const raceEnabled = false
