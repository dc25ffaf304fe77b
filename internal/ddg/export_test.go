package ddg

// Snapshot returns l's analysis snapshot without building one, and
// whether it matches l's current shape.
func Snapshot(l *Loop) (a *Analysis, current bool) {
	a = l.analysis.Load()
	return a, a != nil && a.nOps == len(l.Ops) && a.nEdges == len(l.Edges)
}

// StartedFromSource reports whether l's snapshot holds RecurrenceOps,
// without computing them: after a CopyFrom it tells a snapshot started
// from the source's recurrence analyses from one started without them,
// and after a Spill a snapshot that kept its own from one reset without
// them.
func StartedFromSource(l *Loop) bool {
	a := l.analysis.Load()
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recOps != nil
}
