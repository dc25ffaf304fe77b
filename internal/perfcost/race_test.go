//go:build race

package perfcost

// raceEnabled reports a -race build. Allocation bounds are pinned without
// the race detector, whose instrumentation changes allocation counts (and
// which makes the worker pool drop workers).
const raceEnabled = true
