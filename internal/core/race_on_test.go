//go:build race

package core

// raceEnabled reports that the race detector is active: its
// instrumentation changes what memory tests measure.
const raceEnabled = true
