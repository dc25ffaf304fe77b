// Package sched implements modulo scheduling (software pipelining) for the
// VLIW machines of the paper.
//
// The paper schedules its 1180-loop workbench with Hypernode Reduction
// Modulo Scheduling (HRMS, Llosa et al., MICRO-28), a register-pressure
// sensitive heuristic that achieves near-optimal initiation intervals. We
// implement the HRMS-family algorithm in two phases:
//
//  1. an ordering phase that lists the operations so that every operation
//     is scheduled as close as possible to its already-scheduled neighbours
//     (recurrence components first, most critical first) — this is what
//     keeps value lifetimes, and hence register pressure, low;
//  2. a placement phase that assigns each operation a cycle and a
//     reservation in a modulo reservation table, scanning forward from its
//     earliest start when predecessors are placed, backward from its latest
//     start when successors are placed. When a window is closed or full,
//     the phase falls back to the forced placement with eviction of Rau's
//     iterative modulo scheduling (the paper's reference [20]). The II
//     starts at MII = max(ResMII, RecMII) and increases until the loop
//     fits.
//
// The result is a flat schedule: an absolute start cycle per operation; row
// (cycle mod II) and stage (cycle div II) derive from it.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/mrt"
)

// Schedule is a valid modulo schedule of a loop on a machine.
type Schedule struct {
	// Loop is the scheduled loop (the transformed loop when widening).
	Loop *ddg.Loop
	// II is the initiation interval in cycles.
	II int
	// Time[v] is the absolute start cycle of operation v (>= 0).
	Time []int
	// Res[v] is the reservation operation v holds in the modulo
	// reservation table.
	Res []mrt.Reservation
	// Model, Buses and FPUs record the machine the schedule targets.
	Model machine.CycleModel
	Buses int
	FPUs  int
}

// Row returns the cycle of operation v within the repeating kernel.
func (s *Schedule) Row(v int) int { return s.Time[v] % s.II }

// Stage returns the pipeline stage of operation v.
func (s *Schedule) Stage(v int) int { return s.Time[v] / s.II }

// Stages returns the number of pipeline stages (the depth of overlap).
func (s *Schedule) Stages() int {
	max := 0
	for v := range s.Time {
		if st := s.Stage(v); st > max {
			max = st
		}
	}
	return max + 1
}

// Length returns the absolute span of the schedule in cycles: the start of
// the last operation plus one (the flat-schedule length before overlap).
func (s *Schedule) Length() int {
	max := 0
	for _, t := range s.Time {
		if t+1 > max {
			max = t + 1
		}
	}
	return max
}

// Validate checks every dependence constraint and rebuilds the reservation
// table to confirm the resource assignment is consistent.
func (s *Schedule) Validate() error {
	l := s.Loop
	if len(s.Time) != l.NumOps() || len(s.Res) != l.NumOps() {
		return fmt.Errorf("sched: schedule arrays sized %d/%d for %d ops",
			len(s.Time), len(s.Res), l.NumOps())
	}
	if s.II < 1 {
		return fmt.Errorf("sched: invalid II %d", s.II)
	}
	for v, t := range s.Time {
		if t < 0 {
			return fmt.Errorf("sched: op %d starts at negative cycle %d", v, t)
		}
	}
	for _, e := range l.Edges {
		lat := s.Model.Latency(l.Ops[e.From].Kind)
		if s.Time[e.To] < s.Time[e.From]+lat-s.II*e.Dist {
			return fmt.Errorf("sched: dependence %d->%d (dist %d) violated: %d < %d+%d-%d*%d",
				e.From, e.To, e.Dist, s.Time[e.To], s.Time[e.From], lat, s.II, e.Dist)
		}
	}
	table := mrt.New(s.II, s.Buses, s.FPUs)
	for v, op := range l.Ops {
		res := s.Res[v]
		if res.Class != classOf(op.Kind) {
			return fmt.Errorf("sched: op %d (%s) holds a %s reservation", v, op.Kind, res.Class)
		}
		occ := 0
		for _, sp := range res.Spans {
			occ += sp.Occ
		}
		if occ != s.Model.Occupancy(op.Kind) {
			return fmt.Errorf("sched: op %d reserves %d rows, needs %d",
				v, occ, s.Model.Occupancy(op.Kind))
		}
		if len(res.Spans) == 0 || mod(res.Spans[0].Cycle, s.II) != s.Row(v) {
			return fmt.Errorf("sched: op %d reservation does not start at its issue row", v)
		}
		if !table.PlaceExact(res) {
			return fmt.Errorf("sched: op %d (%s) overlaps another reservation", v, op.Kind)
		}
	}
	return nil
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func classOf(k machine.OpKind) mrt.Class {
	if k.IsMem() {
		return mrt.Mem
	}
	return mrt.FPU
}

// Format renders the kernel as a II-row table for human inspection.
func (s *Schedule) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "II=%d stages=%d ops=%d\n", s.II, s.Stages(), s.Loop.NumOps())
	byRow := make([][]int, s.II)
	for v := range s.Loop.Ops {
		r := s.Row(v)
		byRow[r] = append(byRow[r], v)
	}
	for r := 0; r < s.II; r++ {
		fmt.Fprintf(&b, "%3d:", r)
		sort.Ints(byRow[r])
		for _, v := range byRow[r] {
			op := s.Loop.Ops[v]
			name := op.Name
			if name == "" {
				name = fmt.Sprintf("%s%d", op.Kind, v)
			}
			fmt.Fprintf(&b, " %s@s%d", name, s.Stage(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Options tunes the scheduler.
type Options struct {
	// Order selects the ordering heuristic; nil uses HRMSOrder.
	Order OrderFunc
	// MinII raises the starting point of the II search above MII. The
	// spill pass uses it to trade cycles for register pressure when no
	// spill candidate remains.
	MinII int
	// MaxII caps the II search; 0 derives the cap from the loop (see
	// safeMaxII). The cap is a search budget, not a guarantee: when no II
	// up to it admits a schedule, ModuloSchedule returns ErrNoSchedule.
	MaxII int
	// Workspace, when set, serves the call's ordering and placement
	// scratch from a reusable arena instead of fresh allocations — the
	// cold-start path of an engine evaluating many loops in sequence. The
	// returned Schedule never aliases the workspace.
	Workspace *Workspace
}

// Workspace is a reusable scheduling scratch arena: the ordering and
// placement state that does not escape into the returned Schedule
// (ranks, victim stamps, the lazy-deletion heap, the modulo reservation
// table and its row-owner index). It also remembers the last HRMS order
// with the loop analysis snapshot and cycle model it was computed for, so
// a call that reschedules the same loop at another II (every candidate
// of the spill pass's II growth) reuses the order. A zero Workspace is
// ready to use; it grows to the largest loop it has scheduled and is NOT
// safe for concurrent use — callers pool one per worker (see perfcost).
// The remembered snapshot keeps its loop reachable, so each pooled
// workspace pins at most one loop.
type Workspace struct {
	ints      []int  // rank + lastForced + heap + stamp, one 4n slab
	placed    []bool // placement marks
	hrmsInts  []int  // HRMS slack + occupancy + rank + sorted order + frontier heap, one 5n slab
	hrmsBools []bool // HRMS ordered + joined-frontier marks, one 2n slab
	order     []int  // HRMS output, reused across calls
	// orderFor and orderModel identify the loop snapshot and cycle model
	// order belongs to; a nil orderFor memoizes nothing.
	orderFor   *ddg.Analysis
	orderModel machine.CycleModel
	p          placer // placer header (holds the reservation table and owner index across calls)
}

// NewWorkspace returns an empty scheduling workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool serves ModuloSchedule calls that bring no workspace of their
// own, so one-shot callers (the spill probes, the exact solver's
// baseline, tests) get the warm-arena allocation profile for free. Safe
// to recycle because the returned Schedule never aliases the workspace.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// ErrNoSchedule is returned when no II up to the cap admits a schedule.
var ErrNoSchedule = errors.New("sched: no feasible schedule within II budget")

// ModuloSchedule software-pipelines the loop onto the machine. The loop
// must already be width-transformed for the machine (see the widen
// package); the scheduler treats wide operations as single operations.
//
// Every graph analysis the schedule needs (validation, ordering inputs,
// the MII bound, ASAP times, adjacency) is served from the loop's
// analysis cache, and the HRMS order from the workspace, so rescheduling
// the same loop — the spill pass does it at every II retry — pays for the
// traversals and the ordering once.
func ModuloSchedule(l *ddg.Loop, m machine.Machine, opts *Options) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := l.Analysis()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	ws := o.Workspace
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	buses, fpus := m.Slots()
	model := m.Model

	var order []int
	switch {
	case o.Order != nil:
		order = o.Order(l, model)
	case ws.orderFor == a && ws.orderModel == model:
		order = ws.order // the order depends on the loop and model, not the II
	default:
		ws.order = hrmsOrder(l, model, ws)
		ws.orderFor, ws.orderModel = a, model
		order = ws.order
	}
	if len(order) != l.NumOps() {
		return nil, fmt.Errorf("sched: ordering returned %d of %d ops", len(order), l.NumOps())
	}

	mii := a.MII(model, buses, fpus)
	if o.MinII > mii {
		mii = o.MinII
	}
	maxII := o.MaxII
	if maxII == 0 {
		maxII = safeMaxII(l, model, mii)
	}

	// One scratch arena serves the whole II search: the placement state
	// (times, reservations, heap, reservation table, owner index) is reset
	// in place at each candidate II instead of being reallocated.
	sc := newPlacer(l, model, order, a.Preds(), a.Succs(), a.ASAP(model), ws)
	for ii := mii; ii <= maxII; ii++ {
		if s, ok := sc.tryPlace(buses, fpus, ii); ok {
			s.Buses, s.FPUs = buses, fpus
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w (MII=%d, cap=%d, loop %q)", ErrNoSchedule, mii, maxII, l.Name)
}

// safeMaxII returns the II search budget: MII plus the critical path plus
// room for every reservation to fragment the table ((maxOcc+1) rows per
// reserved row). It bounds the search; it does not prove that placement
// succeeds below it. The greedy placement gives up at an II when its
// eviction budget runs out, and on some loops it does so at every II up
// to the cap (loop scalar0020 of the 30-loop default workbench, widened
// for 1w16 with 32 registers under the 3-cycle model, fails its spill
// reschedule this way at MII=378, cap=1263).
func safeMaxII(l *ddg.Loop, model machine.CycleModel, mii int) int {
	totalOcc, maxOcc := 0, 1
	for _, op := range l.Ops {
		occ := model.Occupancy(op.Kind)
		totalOcc += occ
		if occ > maxOcc {
			maxOcc = occ
		}
	}
	return mii + l.CriticalPath(model) + totalOcc*(maxOcc+1) + 8
}

const inf = int(^uint(0) >> 2)

// placer is the per-search scratch arena of the placement phase. One
// placer serves every candidate II of a ModuloSchedule call: tryPlace
// resets the state in place instead of reallocating it, and the final
// schedule hands the time/reservation arrays off without copying.
type placer struct {
	l            *ddg.Loop
	model        machine.CycleModel
	preds, succs [][]ddg.Edge
	asap         []int

	// rank[v] is v's position in the scheduling order; the next operation
	// to (re)place is always the unplaced one with the smallest rank.
	order []int
	rank  []int

	time       []int
	res        []mrt.Reservation
	placed     []bool
	lastForced []int

	// heap is a min-heap of the ranks of operations to place, with lazy
	// deletion: popping skips entries whose operation was placed since
	// being pushed. Ranks are unique, so the pop order matches the
	// linear smallest-rank scan it replaces exactly.
	heap minHeap

	table *mrt.Table

	// owners is the row-owner eviction index: for each unit of each
	// class, II entries holding the operation that reserves the row, or
	// -1. Unit u of class c owns owners[(unitBase[c]+u)*ii:][:ii]. A
	// forced placement reads its victims off the rows it needs instead of
	// testing every placed reservation.
	owners   []int32
	unitBase [2]int
	ii       int
	// stamp[w] == epoch marks w as seen by the current victim scan, so an
	// operation holding several rows of the window counts once.
	stamp   []int
	epoch   int
	victims []int
}

func newPlacer(l *ddg.Loop, model machine.CycleModel, order []int,
	preds, succs [][]ddg.Edge, asap []int, ws *Workspace) *placer {

	n := l.NumOps()
	// Reuse the workspace's placer header (it carries the reservation
	// table and owner index across calls) and its scratch slabs.
	p := &ws.p
	if cap(ws.ints) < 4*n {
		ws.ints = make([]int, 4*n)
	}
	ints := ws.ints
	if cap(ws.placed) < n {
		ws.placed = make([]bool, n)
	}
	p.placed = ws.placed[:n]
	p.l, p.model, p.order = l, model, order
	p.preds, p.succs, p.asap = preds, succs, asap
	p.rank = ints[0:n:n]
	p.lastForced = ints[n : 2*n : 2*n]
	p.heap = minHeap(ints[2*n : 2*n : 3*n])
	p.stamp = ints[3*n : 4*n : 4*n]
	for v := range p.stamp {
		p.stamp[v] = 0
	}
	p.epoch = 0
	p.victims = p.victims[:0]

	// time and res escape into the returned Schedule, so they are always
	// freshly allocated. Every reservation starts with a one-span slot
	// carved from one shared slab: the common case (occupancy <= II) fills
	// it in place, so placement allocates no spans at all.
	p.time = make([]int, n)
	p.res = make([]mrt.Reservation, n)
	spans := make([]mrt.Span, n)
	for v := range p.res {
		p.res[v].Spans = spans[v : v : v+1]
	}
	for i, v := range order {
		p.rank[v] = i
	}
	return p
}

// reset prepares the arena for a fresh placement attempt at the given II.
func (p *placer) reset(buses, fpus, ii int) {
	for v := range p.placed {
		p.placed[v] = false
		p.lastForced[v] = -inf
	}
	// Ascending ranks are already a valid min-heap.
	p.heap = p.heap[:0]
	for r := range p.order {
		p.heap = append(p.heap, r)
	}
	if p.table == nil {
		p.table = mrt.New(ii, buses, fpus)
	} else {
		p.table.Reset(ii, buses, fpus)
	}
	p.ii = ii
	p.unitBase = [2]int{mrt.Mem: 0, mrt.FPU: buses}
	rows := (buses + fpus) * ii
	if cap(p.owners) < rows {
		// Twice the need: the spill pass walks the II upward one step at
		// a time, so the index grows geometrically, not per II.
		p.owners = make([]int32, rows, 2*rows)
	}
	p.owners = p.owners[:rows]
	for i := range p.owners {
		p.owners[i] = -1
	}
}

// minHeap is a binary min-heap of ints. The ordering phase and the placer
// both keep operation ranks in one, so a pop yields the best-ranked
// operation.
type minHeap []int

func (h *minHeap) push(x int) {
	q := append(*h, x)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *minHeap) pop() int {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		small := l
		if r := l + 1; r < len(q) && q[r] < q[l] {
			small = r
		}
		if q[i] <= q[small] {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// popUnplaced returns the unplaced operation with the smallest rank,
// discarding stale heap entries, or -1 when none remains.
func (p *placer) popUnplaced() int {
	for len(p.heap) > 0 {
		if v := p.order[p.heap.pop()]; !p.placed[v] {
			return v
		}
	}
	return -1
}

// unitOwners returns the row owners of unit u of class c.
func (p *placer) unitOwners(c mrt.Class, u int) []int32 {
	base := (p.unitBase[c] + u) * p.ii
	return p.owners[base : base+p.ii]
}

// own writes owner (v when placing v, -1 when evicting it) into every row
// v's reservation holds.
func (p *placer) own(v int, owner int32) {
	r := &p.res[v]
	for _, sp := range r.Spans {
		rows := p.unitOwners(r.Class, sp.Unit)
		row := mod(sp.Cycle, p.ii)
		for i := 0; i < sp.Occ; i++ {
			rows[row] = owner
			if row++; row == p.ii {
				row = 0
			}
		}
	}
}

// rowOwners counts the distinct operations owning the occ rows of unit u
// of class c that start at row, appending them to victims when collect is
// set.
func (p *placer) rowOwners(c mrt.Class, u, row, occ int, collect bool) int {
	p.epoch++
	rows := p.unitOwners(c, u)
	n := 0
	for i := 0; i < occ; i++ {
		if w := rows[row]; w >= 0 && p.stamp[w] != p.epoch {
			p.stamp[w] = p.epoch
			n++
			if collect {
				p.victims = append(p.victims, int(w))
			}
		}
		if row++; row == p.ii {
			row = 0
		}
	}
	return n
}

// tryPlace attempts a schedule at a fixed II following the placer's order.
func (p *placer) tryPlace(buses, fpus, ii int) (*Schedule, bool) {
	l, model := p.l, p.model
	n := l.NumOps()
	p.reset(buses, fpus, ii)
	time, res, placed, lastForced := p.time, p.res, p.placed, p.lastForced
	table := p.table

	budget := 8*n + 64
	remaining := n
	frontier := 0 // latest placed start time: seeds new components nearby
	for remaining > 0 {
		if budget--; budget < 0 {
			return nil, false
		}
		// Pick the unplaced op with the best (smallest) rank.
		v := p.popUnplaced()
		if v < 0 {
			return nil, false // unreachable: remaining > 0 implies an entry
		}
		op := l.Ops[v]
		occ := model.Occupancy(op.Kind)
		class := classOf(op.Kind)

		estart, lstart := -inf, inf
		hasPred, hasSucc := false, false
		for _, e := range p.preds[v] {
			if e.From == v || !placed[e.From] {
				continue
			}
			hasPred = true
			if t := time[e.From] + model.Latency(l.Ops[e.From].Kind) - ii*e.Dist; t > estart {
				estart = t
			}
		}
		for _, e := range p.succs[v] {
			if e.To == v || !placed[e.To] {
				continue
			}
			hasSucc = true
			if t := time[e.To] - model.Latency(op.Kind) + ii*e.Dist; t < lstart {
				lstart = t
			}
		}
		// Self edges (dist >= 1) constrain II, not the start time, and MII
		// already accounts for them.

		// The candidate window — at most II cycles, forward or backward
		// depending on which neighbours are placed — goes to the table's
		// first-fit search, and PlaceInto runs once, at the cycle found.
		var from, to, step int
		switch {
		case hasPred && !hasSucc:
			// Start no earlier than one II behind the frontier: a node
			// whose predecessor sits many iterations back (e.g. a reload
			// of a cross-iteration value) would otherwise issue absurdly
			// early and hold its result for several kernel turns.
			base := estart
			if fb := frontier - ii + 1; fb > base {
				base = fb
			}
			from, to, step = base, base+ii-1, 1
		case !hasPred && hasSucc:
			from, to, step = lstart, lstart-ii+1, -1
		case hasPred && hasSucc:
			hi := lstart
			if estart+ii-1 < hi {
				hi = estart + ii - 1
			}
			from, to, step = estart, hi, 1
		default:
			// No placed neighbours: this seeds a new connected component.
			// Start near the schedule frontier rather than at the flat
			// ASAP — otherwise every independent dataflow tree issues at
			// cycle ~0 and their lifetimes all overlap, holding register
			// pressure at the DAG's antichain width even at enormous IIs
			// (HRMS's whole point is scheduling each operation next to
			// already-placed work).
			base := p.asap[v]
			if frontier > base {
				base = frontier
			}
			from, to, step = base, base+ii-1, 1
		}

		if t, ok := table.FirstFit(class, from, to, step, occ); ok && table.PlaceInto(&res[v], class, t, occ) {
			time[v], placed[v] = t, true
			p.own(v, int32(v))
			if t > frontier {
				frontier = t
			}
			remaining--
			continue
		}

		// Forced placement with eviction. Choose a forcing time that makes
		// forward progress: never re-force the same op at the same cycle.
		var tf int
		switch {
		case hasPred:
			tf = estart
		case hasSucc:
			tf = lstart
		default:
			tf = p.asap[v]
			if frontier > tf {
				tf = frontier
			}
		}
		if tf <= lastForced[v] {
			tf = lastForced[v] + 1
		}
		lastForced[v] = tf

		evict := func(u int) {
			if placed[u] {
				table.Release(res[u])
				p.own(u, -1)
				placed[u] = false
				p.heap.push(p.rank[u])
				remaining++
			}
		}
		// Dependence victims: placed neighbours whose constraint against
		// time[v] = tf no longer holds.
		for _, e := range p.preds[v] {
			if e.From != v && placed[e.From] &&
				tf < time[e.From]+model.Latency(l.Ops[e.From].Kind)-ii*e.Dist {
				evict(e.From)
			}
		}
		for _, e := range p.succs[v] {
			if e.To != v && placed[e.To] &&
				time[e.To] < tf+model.Latency(op.Kind)-ii*e.Dist {
				evict(e.To)
			}
		}

		// Resource victims, read off the row-owner index. v itself is
		// unplaced, so it owns no row.
		p.victims = p.victims[:0]
		if occ <= ii {
			// Free one unit's conflicting rows: pick the unit of the class
			// with the fewest conflicting reservations.
			row := mod(tf, ii)
			bestUnit, bestCount := -1, inf
			for u := 0; u < table.Units(class); u++ {
				if cnt := p.rowOwners(class, u, row, occ, false); cnt < bestCount {
					bestUnit, bestCount = u, cnt
				}
			}
			p.rowOwners(class, bestUnit, row, occ, true)
		} else {
			// Multi-unit reservation: evict every operation of the class
			// (rare: a non-pipelined op at an II below its occupancy).
			for w, ok := range placed {
				if ok && res[w].Class == class {
					p.victims = append(p.victims, w)
				}
			}
		}
		for _, w := range p.victims {
			evict(w)
		}
		if !table.PlaceInto(&res[v], class, tf, occ) {
			return nil, false // class too small for the reservation at this II
		}
		time[v], placed[v] = tf, true
		p.own(v, int32(v))
		if tf > frontier {
			frontier = tf
		}
		remaining--
	}

	// Normalize to non-negative times, shifting by a multiple of II so the
	// reservation rows stay aligned with the units.
	min := 0
	for _, t := range time {
		if t < min {
			min = t
		}
	}
	if min < 0 {
		shift := ((-min + ii - 1) / ii) * ii
		for v := range time {
			time[v] += shift
			for i := range res[v].Spans {
				res[v].Spans[i].Cycle += shift
			}
		}
	}

	return &Schedule{Loop: l, II: ii, Time: time, Res: res, Model: model}, true
}
