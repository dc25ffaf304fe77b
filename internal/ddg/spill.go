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
// When the loop holds an analysis snapshot of its current shape and def
// is on no recurrence, Spill derives the next snapshot from it instead of
// leaving the next Loop.Analysis call to rebuild every analysis:
//   - The edge lists are patched in place. Each rerouted edge keeps its
//     index in Edges and both lists stay in edge-index order, so the
//     result equals a fresh build.
//   - The recurrence analyses carry over. No consumer of def reaches back
//     to def, so the store and reloads are singleton components without
//     self edges and no recurrence component changes: RecurrenceOps is
//     the same map, and RecMII and RecPrio (zero for the new operations)
//     keep their values.
//   - Validation, the topological order, the latency and occupancy
//     tables, ASAP/ALAP and the HRMS order are recomputed on demand into
//     the old storage; the SCC list and the ResMII memo are dropped.
//
// The derived snapshot is a new *Analysis (a memo keyed by snapshot
// identity sees a new loop shape), and the old one gives up its storage.
// Otherwise Spill only rewrites the loop, and the next Analysis call
// rebuilds.
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
	a := l.derivable(def)
	n0, m0 := len(l.Ops), len(l.Edges)

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

	// Op n0 is the store, fed by edge m0; each later op n0+i is a reload,
	// fed by edge m0+i from the store.
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
	if a != nil {
		l.analysis.Store(a.derive(def, n0, m0, reroute))
	}
	return 1, loads
}

// derivable returns the snapshot Spill(def) can derive the next one from:
// the loop's snapshot when it matches the loop's shape and def is on no
// recurrence, nil otherwise.
func (l *Loop) derivable(def int) *Analysis {
	a := l.analysis.Load()
	if a == nil || a.nOps != len(l.Ops) || a.nEdges != len(l.Edges) || a.RecurrenceOps()[def] {
		return nil
	}
	return a
}

// derive returns the snapshot of the loop after Spill(def) rewrote it:
// ops n0 and up and edges m0 and up are new, and the edges at the indices
// in reroute now leave reloads. a gives its storage to the result.
func (a *Analysis) derive(def, n0, m0 int, reroute []int) *Analysis {
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.loop
	n := len(l.Ops)
	next := &Analysis{
		loop: l, nOps: n, nEdges: len(l.Edges),
		preds: a.preds, succs: a.succs, havePreds: a.havePreds, haveSuccs: true,
		recOps: a.recOps, topoZero: a.topoZero, cnt: a.cnt,
		models: a.models, resMII: a.resMII,
	}

	// Each new op has one predecessor, the edge that created it. The
	// store's successors are the store->reload edges; each reload's are
	// the rerouted edges it now feeds. All of them come from one slab.
	// The successor lists exist (derivable found the recurrence ops, which
	// are computed from them); the predecessor lists may not.
	size := n - n0 - 1 + len(reroute)
	if a.havePreds {
		size += n - n0
	}
	slab := make([]Edge, 0, size)
	// carve returns the edges appended to slab since start as one list.
	carve := func(start int) []Edge { return slab[start:len(slab):len(slab)] }

	if a.havePreds {
		preds := a.preds.lists
		// A consumer's k-th entry from def is its k-th rerouted edge.
		for _, ei := range reroute {
			e := l.Edges[ei]
			in := preds[e.To]
			for j := range in {
				if in[j].From == def {
					in[j] = e
					break
				}
			}
		}
		for _, e := range l.Edges[m0:] {
			slab = append(slab, e)
			preds = append(preds, carve(len(slab)-1))
		}
		next.preds.lists = preds
	}

	// def keeps its edges into spill ops, and the edge to its store has
	// the largest index.
	succs := a.succs.lists
	kept := succs[def][:0]
	for _, e := range succs[def] {
		if l.Ops[e.To].Spill {
			kept = append(kept, e)
		}
	}
	succs[def] = append(kept, l.Edges[m0])
	start := len(slab)
	slab = append(slab, l.Edges[m0+1:]...)
	succs = append(succs, carve(start))
	for ld := n0 + 1; ld < n; ld++ {
		start := len(slab)
		for _, ei := range reroute {
			if e := l.Edges[ei]; e.From == ld {
				slab = append(slab, e)
			}
		}
		succs = append(succs, carve(start))
	}
	next.succs.lists = succs

	for _, ma := range next.models {
		ma.dropArrays()
		if ma.haveRec {
			ma.recPrio = append(ma.recPrio, make([]int, n-n0)...)
		}
	}
	clear(next.resMII)

	a.giveUpLocked()
	return next
}
