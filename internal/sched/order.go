package sched

import (
	"cmp"
	"slices"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// HRMSOrder implements the HRMS-family node ordering: recurrence components
// are seeded most-critical first (highest per-component RecMII), and every
// subsequent operation is chosen among the neighbours of the already
// ordered set, most critical (least slack) first. The effect is that when
// the placement phase schedules an operation, its graph neighbours were
// just scheduled, so it lands close to them and value lifetimes stay short
// — the register-pressure-sensitivity that HRMS (and its successor Swing
// Modulo Scheduling) brings over plain top-down list ordering.
func HRMSOrder(l *ddg.Loop, model machine.CycleModel) []int {
	occ := make([]int, l.NumOps())
	for v, op := range l.Ops {
		occ[v] = model.Occupancy(op.Kind)
	}
	return hrmsOrder(l, model, occ, nil)
}

// hrmsOrder is HRMSOrder given each operation's occupancy under the model,
// with an optional scratch workspace: with one, the key, rank and heap
// arrays, the marks and the returned order (which the caller consumes
// before the next scheduling call) come from reusable slabs instead of
// per-call allocations.
//
// The preference between two operations is a fixed strict total order, so
// hrmsOrder sorts the operations by it once and works on ranks: the next
// seed is the first unordered operation of the sorted list (a cursor that
// only moves forward), and the frontier is a min-heap of ranks that each
// operation enters once, when it first neighbours the ordered set. Every
// pick is the operation a scan for the best candidate would choose.
func hrmsOrder(l *ddg.Loop, model machine.CycleModel, occ []int, ws *Workspace) []int {
	n := l.NumOps()
	if n == 0 {
		return nil
	}
	// ASAP/ALAP, per-component recurrence criticality and the edge lists
	// all come from the loop's analysis cache: a reschedule of the same
	// loop (every spill-pass II retry) reorders without re-traversing the
	// graph.
	a := l.Analysis()
	asap := a.ASAP(model)
	alap := a.ALAP(model)

	var ints []int
	var bools []bool
	var order []int
	if ws != nil {
		if cap(ws.hrmsInts) < 4*n {
			ws.hrmsInts = make([]int, 4*n)
		}
		ints = ws.hrmsInts
		if cap(ws.hrmsBools) < 2*n {
			ws.hrmsBools = make([]bool, 2*n)
		}
		bools = ws.hrmsBools
		clear(bools[:2*n])
		if cap(ws.order) < n {
			ws.order = make([]int, 0, n)
		}
		order = ws.order[:0]
	} else {
		ints = make([]int, 4*n)
		bools = make([]bool, 2*n)
		order = make([]int, 0, n)
	}
	slack, rank, sorted := ints[0:n:n], ints[n:2*n:2*n], ints[2*n:3*n:3*n]
	frontier := minHeap(ints[3*n : 3*n : 4*n])
	// ordered marks the ordered set; joined marks the operations that have
	// entered the frontier heap.
	ordered, joined := bools[0:n:n], bools[n:2*n:2*n]

	for v := 0; v < n; v++ {
		slack[v] = alap[v] - asap[v]
	}

	// Per-node recurrence criticality: the RecMII of the node's component
	// (0 for nodes outside recurrences).
	recPrio := a.RecPrio(model)

	// Frontier expansion walks both edge directions.
	preds, succs := a.Preds(), a.Succs()

	// Higher recurrence criticality first, then heavier reservations (a
	// non-pipelined operation reserves many rows and fragments badly if
	// placed late, so it goes as early as the frontier allows), then less
	// slack, then earlier ASAP, then ID: 0 only when a == b.
	for v := range sorted {
		sorted[v] = v
	}
	slices.SortFunc(sorted, func(a, b int) int {
		if c := cmp.Compare(recPrio[b], recPrio[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(occ[b], occ[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(slack[a], slack[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(asap[a], asap[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for r, v := range sorted {
		rank[v] = r
	}

	seed := 0 // sorted[:seed] holds no unordered operation
	for len(order) < n {
		// The frontier holds exactly the unordered operations adjacent to
		// the ordered set: an operation leaves it only when popped, and a
		// seed is taken only when it is empty.
		var v int
		if len(frontier) > 0 {
			v = sorted[frontier.pop()]
		} else {
			for ordered[sorted[seed]] {
				seed++
			}
			v = sorted[seed]
		}
		ordered[v] = true
		order = append(order, v)
		// Each unordered neighbour joins the frontier once (a self edge
		// finds v ordered). Ranks are unique, so the order of the pushes
		// does not change the order of the pops.
		for _, e := range preds[v] {
			if w := e.From; !ordered[w] && !joined[w] {
				joined[w] = true
				frontier.push(rank[w])
			}
		}
		for _, e := range succs[v] {
			if w := e.To; !ordered[w] && !joined[w] {
				joined[w] = true
				frontier.push(rank[w])
			}
		}
	}
	if ws != nil {
		ws.order = order
	}
	return order
}
