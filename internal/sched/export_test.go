package sched

// RandomLoop exposes the property tests' random loop generator to the
// external differential tests.
var RandomLoop = randomLoop

// SafeMaxII exposes the II search cap ModuloSchedule derives from each
// operation's ASAP time, latency and occupancy.
var SafeMaxII = safeMaxII
