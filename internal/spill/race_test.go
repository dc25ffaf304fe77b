//go:build race

package spill

// raceEnabled reports a -race build, whose detector makes sync.Pool drop
// items and so inflates the steady-state allocation counts.
const raceEnabled = true
