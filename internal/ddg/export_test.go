package ddg

// HoldsSnapshot reports whether l holds an analysis snapshot of its
// current shape, without building one: after a Spill it tells a derived
// snapshot from a rewrite the next Analysis call must rebuild for.
func HoldsSnapshot(l *Loop) bool {
	a := l.analysis.Load()
	return a != nil && a.nOps == len(l.Ops) && a.nEdges == len(l.Edges)
}

// StartedFromSource reports whether l's snapshot holds RecurrenceOps,
// without computing them: after a CopyFrom it tells a snapshot started
// from the source's recurrence analyses from one started without them.
func StartedFromSource(l *Loop) bool {
	a := l.analysis.Load()
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recOps != nil
}
