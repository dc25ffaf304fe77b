package sched

import (
	"repro/internal/ddg"
	"repro/internal/machine"
)

// RandomLoop exposes the property tests' random loop generator to the
// external differential tests.
var RandomLoop = randomLoop

// SafeMaxII exposes the II search cap ModuloSchedule derives from each
// operation's ASAP time, latency and occupancy.
var SafeMaxII = safeMaxII

// Attempt makes one placement attempt of l on m at exactly ii, in a fresh
// workspace. It reports whether the attempt placed every operation,
// whether its failure is II-invariant (the failure that ends
// ModuloSchedule's search), and the start cycle of every operation it
// left placed, -1 for the others.
func Attempt(l *ddg.Loop, m machine.Machine, ii int) (placed, invariant bool, times []int) {
	buses, fpus := m.Slots()
	p := newPlacer(l, l.Analysis(), m.Model, NewWorkspace(), &Schedule{})
	placed, invariant = p.tryPlace(buses, fpus, ii)
	times = make([]int, len(p.time))
	for v, t := range p.time {
		times[v] = -1
		if p.placed[v] {
			times[v] = t
		}
	}
	return placed, invariant, times
}
