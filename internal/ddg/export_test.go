package ddg

// Snapshot returns l's analysis snapshot without building one, and
// whether it matches l's current shape.
func Snapshot(l *Loop) (a *Analysis, current bool) {
	a = l.analysis.Load()
	return a, a != nil && a.nOps == len(l.Ops) && a.nEdges == len(l.Edges)
}
