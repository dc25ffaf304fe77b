package ddg

import (
	"fmt"

	"repro/internal/machine"
)

// Spill rewrites the loop in place so that the value of operation def
// goes through memory: def gets a spill store, and every consumer that is
// not itself a spill operation is rerouted through a reload of that store,
// one reload per distinct dependence distance. A reload issues in its
// consumers' iteration, so the store feeds it across the consumers' old
// distance and the rerouted edges have distance 0. The new operations are
// marked Spill, inherit def's width, and are named spst<def> and
// spld<def>.<distance>. Spill returns the number of stores and loads it
// added; it adds none, and leaves the loop unchanged, when def has no
// consumer to reroute.
//
// When the loop holds an analysis snapshot, Spill resets it in place to
// the rewritten loop (see Analysis) instead of leaving the next
// Loop.Analysis call to build one from nothing. Every analysis, the edge
// lists and SCCs included, is recomputed on demand into the snapshot's
// storage, as a fresh snapshot computes it. A loop without a snapshot is
// only rewritten.
//
// Spill mutates the loop and its snapshot, so the caller must own the
// loop: nothing else may read it or its analyses concurrently. Slices and
// maps read from the snapshot before a Spill are stale after it.
func (l *Loop) Spill(def int) (stores, loads int) {
	// The flow edges to reroute, by ascending index. Self edges and edges
	// feeding spill ops stay (spill stores must still read the register).
	var buf [16]int
	reroute := buf[:0]
	for i, e := range l.Edges {
		if e.From == def && e.To != def && !l.Ops[e.To].Spill {
			reroute = append(reroute, i)
		}
	}
	if len(reroute) == 0 {
		return 0, 0
	}
	m0 := len(l.Edges)

	defOp := l.Ops[def]
	newOp := func(kind machine.OpKind, name string) int {
		id := len(l.Ops)
		l.Ops = append(l.Ops, Op{
			ID:    id,
			Kind:  kind,
			Wide:  defOp.Wide,
			Lanes: defOp.Lanes,
			Spill: true,
			Name:  name,
		})
		return id
	}

	// The store is the first new op, fed by edge m0; each later new op is a
	// reload, fed from the store by one of the edges after m0.
	st := newOp(machine.Store, fmt.Sprintf("spst%d", def))
	l.Edges = append(l.Edges, Edge{From: def, To: st, Dist: 0})
	for _, ei := range reroute {
		e := l.Edges[ei]
		ld := -1
		for _, se := range l.Edges[m0+1:] {
			if se.Dist == e.Dist {
				ld = se.To
				break
			}
		}
		if ld < 0 {
			ld = newOp(machine.Load, fmt.Sprintf("spld%d.%d", def, e.Dist))
			l.Edges = append(l.Edges, Edge{From: st, To: ld, Dist: e.Dist})
			loads++
		}
		l.Edges[ei] = Edge{From: ld, To: e.To, Dist: 0}
	}
	if a := l.analysis.Load(); a != nil {
		a.reset()
	}
	return 1, loads
}
