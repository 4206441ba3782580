//go:build race

package gatetest

// Race reports that the race detector is active: its instrumentation
// changes what memory measurements read.
const Race = true
