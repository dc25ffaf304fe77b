//go:build race

package sched

// raceEnabled reports a -race build. Allocation bounds are pinned without
// the race detector, whose instrumentation changes allocation counts.
const raceEnabled = true
