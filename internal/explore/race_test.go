//go:build race

package explore

// raceEnabled reports a -race build, whose instrumentation adds
// allocations of its own.
const raceEnabled = true
