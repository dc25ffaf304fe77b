package sched

// RandomLoop exposes the property tests' random loop generator to the
// external differential tests.
var RandomLoop = randomLoop
