package ddg

// HoldsSnapshot reports whether l holds an analysis snapshot of its
// current shape, without building one: after a Spill it tells a derived
// snapshot from a rewrite the next Analysis call must rebuild for.
func HoldsSnapshot(l *Loop) bool {
	a := l.analysis.Load()
	return a != nil && a.nOps == len(l.Ops) && a.nEdges == len(l.Edges)
}
