//go:build !race

package gatetest

// Race reports whether the race detector is active.
const Race = false
