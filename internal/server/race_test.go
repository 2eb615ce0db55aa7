//go:build race

package server

// The race detector instruments channel operations with allocations of
// its own, so allocation pins only hold in a build without it.
func init() { raceEnabled = true }
