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
//     keeps value lifetimes, and hence register pressure, low. The order
//     depends on the loop and the cycle model only, so it comes from the
//     loop's analysis (ddg.Analysis.HRMSOrder), which memoizes it;
//  2. a placement phase that assigns each operation a cycle and a
//     reservation in a modulo reservation table, scanning forward from its
//     earliest start when predecessors are placed, backward from its latest
//     start when successors are placed. When a window is closed or full,
//     the phase falls back to the forced placement with eviction of Rau's
//     iterative modulo scheduling (the paper's reference [20]). The II
//     starts at MII = max(ResMII, RecMII) and increases until the loop
//     fits, or until an attempt fails without its decisions depending on
//     the II: every larger II would replay that attempt and fail the same
//     way, so the search ends there.
//
// The result is a flat schedule: an absolute start cycle per operation; row
// (cycle mod II) and stage (cycle div II) derive from it.
package sched

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"

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

	// spans is the slab the one-span reservations are carved from (slot v
	// for operation v), kept so that rescheduling into this schedule
	// (Options.Into) places without allocating when occupancy <= II.
	spans []mrt.Span
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
		if len(res.Spans) == 0 || mrt.Row(res.Spans[0].Cycle, s.II) != s.Row(v) {
			return fmt.Errorf("sched: op %d reservation does not start at its issue row", v)
		}
		if !table.PlaceExact(res) {
			return fmt.Errorf("sched: op %d (%s) overlaps another reservation", v, op.Kind)
		}
	}
	return nil
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
	// MinII raises the starting point of the II search above MII. The
	// spill pass uses it to trade cycles for register pressure when no
	// spill candidate remains.
	MinII int
	// Workspace, when set, serves the call's placement scratch from the
	// caller's arena; when nil, the call works in a fresh one. The
	// returned Schedule never aliases the workspace.
	Workspace *Workspace
	// Into, when set, is the schedule ModuloSchedule writes into and
	// returns: its Time, Res and span storage are reused when large
	// enough, so a caller that reschedules into one buffer (the spill
	// pass) allocates nothing per call once the buffer has grown. Every
	// field of *Into is overwritten, and its contents are unspecified
	// after an error. When nil, a fresh Schedule is allocated.
	Into *Schedule
}

// Workspace is a reusable placement scratch arena: the placement state
// that does not escape into the returned Schedule (ranks, victim stamps,
// the unplaced set, the modulo reservation table and its row-owner
// index). The order and the per-operation tables it places by come from
// the loop's analysis, which memoizes them. A zero Workspace is ready to
// use; it grows to the largest loop it has scheduled and is NOT safe for
// concurrent use. Between calls its placer still reaches the arrays of
// the last analysis snapshot it placed from (order, tables, ASAP times and
// edge lists), but not the loop itself.
type Workspace struct {
	ints     []int    // rank + lastForced + stamp, one 3n slab
	unplaced []uint64 // unplaced-set words, one bit per rank
	placed   []bool   // placement marks
	p        placer   // placer header (holds the reservation table and owner index across calls)
}

// NewWorkspace returns an empty scheduling workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow returns s resized to n, reusing its storage when it is large
// enough and otherwise allocating a quarter more than n: the spill pass
// reschedules a working loop that gains operations every round, and
// slabs of exactly the loop's size would regrow at each. It allocates
// with make, because slices.Grow of an empty slice allocates twice under
// the race detector.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n, n+n/4)
	}
	return s[:n]
}

// ErrNoSchedule is returned when no II up to the cap admits a schedule.
var ErrNoSchedule = errors.New("sched: no feasible schedule within II budget")

// ModuloSchedule software-pipelines the loop onto the machine. The loop
// must already be width-transformed for the machine (see the widen
// package); the scheduler treats wide operations as single operations.
//
// Every graph analysis the schedule needs (validation, the HRMS order, the
// latency and occupancy tables, the MII bound, ASAP times, edge lists) is
// served from the loop's analysis cache, so rescheduling the same loop —
// the spill pass does it at every II retry — pays for the traversals and
// the ordering once.
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
		ws = NewWorkspace()
	}
	buses, fpus := m.Slots()
	model := m.Model

	mii := a.MII(model, buses, fpus)
	if o.MinII > mii {
		mii = o.MinII
	}

	// One scratch arena serves the whole II search: the placement state
	// (times, reservations, unplaced set, reservation table, owner index)
	// is reset in place at each candidate II instead of being reallocated.
	dst := o.Into
	if dst == nil {
		dst = &Schedule{}
	}
	sc := newPlacer(l, a, model, ws, dst)
	maxII := safeMaxII(mii, sc.asap, sc.lat, sc.occ)
	for ii := mii; ii <= maxII; ii++ {
		placed, invariant := sc.tryPlace(buses, fpus, ii)
		if placed {
			dst.Loop, dst.II, dst.Model = l, ii, model
			dst.Buses, dst.FPUs = buses, fpus
			return dst, nil
		}
		if invariant {
			break // every II up to the cap fails as this one did
		}
	}
	return nil, fmt.Errorf("%w (MII=%d, cap=%d, loop %q)", ErrNoSchedule, mii, maxII, l.Name)
}

// safeMaxII returns the II search budget: MII plus the critical path plus
// room for every reservation to fragment the table ((maxOcc+1) rows per
// reserved row), from each operation's ASAP time, latency and occupancy.
// The critical path, the longest distance-0 dependence chain, is the
// latest ASAP finish. The budget bounds the search; it does not prove that
// placement succeeds below it. The greedy placement gives up at an II
// when its eviction budget runs out, and on some loops it does so at
// every II up to the cap (loop scalar0020 of the 30-loop default
// workbench, widened for 1w16 with 32 registers under the 3-cycle model,
// fails its spill reschedule this way at MII=378, cap=1263; its attempt
// at 378 does not depend on the II, so the search ends after it).
func safeMaxII(mii int, asap, lat, occ []int) int {
	crit, totalOcc, maxOcc := 0, 0, 1
	for v, o := range occ {
		crit = max(crit, asap[v]+lat[v])
		totalOcc += o
		maxOcc = max(maxOcc, o)
	}
	return mii + crit + totalOcc*(maxOcc+1) + 8
}

const inf = int(^uint(0) >> 2)

// placer is the per-search scratch arena of the placement phase. One
// placer serves every candidate II of a ModuloSchedule call: tryPlace
// resets the state in place instead of reallocating it, and it places
// straight into the destination schedule's time/reservation arrays.
type placer struct {
	preds, succs [][]ddg.Edge
	asap         []int

	// lat and occ are the analysis's per-operation latency and occupancy
	// tables, so a placement step reads no ddg.Op. An operation's resource
	// class is the Class of its reservation slot, set by newPlacer;
	// placing the operation rewrites the same class.
	lat, occ []int

	// rank[v] is v's position in the scheduling order; the next operation
	// to (re)place is always the unplaced one with the smallest rank.
	order []int
	rank  []int

	time       []int
	res        []mrt.Reservation
	placed     []bool
	lastForced []int

	// unplaced is the set of operations waiting to be (re)placed, as a
	// bitset over ranks: bit r stands for order[r]. No word below low has
	// a bit set, so a pop scans up from low for the lowest set bit, and an
	// eviction sets its bit and lowers low. Ranks are unique, so the pop
	// is the smallest-rank unplaced operation. remaining counts the set.
	unplaced  []uint64
	low       int
	remaining int

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

// newPlacer prepares the workspace's placer to place l, whose analysis
// snapshot is a, under the model into dst.
func newPlacer(l *ddg.Loop, a *ddg.Analysis, model machine.CycleModel, ws *Workspace, dst *Schedule) *placer {
	n := l.NumOps()
	// Reuse the workspace's placer header (it carries the reservation
	// table and owner index across calls) and its scratch slabs.
	p := &ws.p
	ws.ints = grow(ws.ints, 3*n)
	ws.placed = grow(ws.placed, n)
	ws.unplaced = grow(ws.unplaced, (n+63)>>6)
	p.placed, p.unplaced = ws.placed, ws.unplaced
	p.order = a.HRMSOrder(model)
	p.lat, p.occ = a.Tables(model)
	p.preds, p.succs, p.asap = a.Preds(), a.Succs(), a.ASAP(model)
	ints := ws.ints
	p.rank = ints[0:n:n]
	p.lastForced = ints[n : 2*n : 2*n]
	p.stamp = ints[2*n : 3*n : 3*n]
	for v := range p.stamp {
		p.stamp[v] = 0
	}
	p.epoch = 0
	p.victims = p.victims[:0]

	// time and res belong to the destination schedule, never to the
	// workspace, so the returned Schedule does not alias the workspace.
	// Every reservation starts with its operation's class and a one-span
	// slot carved from the schedule's slab: the common case (occupancy <=
	// II) fills it in place, so placement allocates no spans at all.
	dst.Time, dst.Res, dst.spans = grow(dst.Time, n), grow(dst.Res, n), grow(dst.spans, n)
	p.time, p.res = dst.Time, dst.Res
	for v, op := range l.Ops {
		p.res[v] = mrt.Reservation{Class: classOf(op.Kind), Spans: dst.spans[v : v : v+1]}
	}
	for i, v := range p.order {
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
	// Every rank is unplaced.
	for w := range p.unplaced {
		p.unplaced[w] = ^uint64(0)
	}
	if r := len(p.order) & 63; r != 0 {
		p.unplaced[len(p.unplaced)-1] = 1<<r - 1
	}
	p.low, p.remaining = 0, len(p.order)
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

// popUnplaced takes the unplaced operation with the smallest rank out of
// the unplaced set, which must not be empty.
func (p *placer) popUnplaced() int {
	for p.unplaced[p.low] == 0 {
		p.low++
	}
	x := p.unplaced[p.low]
	p.unplaced[p.low] = x & (x - 1)
	return p.order[p.low<<6|bits.TrailingZeros64(x)]
}

// place records v, whose reservation res[v] is made, as starting at t.
func (p *placer) place(v, t int) {
	p.time[v], p.placed[v] = t, true
	p.own(v, int32(v))
	p.remaining--
}

// evict takes u, when placed, out of the schedule and back into the
// unplaced set.
func (p *placer) evict(u int) {
	if !p.placed[u] {
		return
	}
	p.table.Release(p.res[u])
	p.own(u, -1)
	p.placed[u] = false
	r := p.rank[u]
	p.unplaced[r>>6] |= 1 << (r & 63)
	p.low = min(p.low, r>>6)
	p.remaining++
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
		row := mrt.Row(sp.Cycle, p.ii)
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

// tryPlace attempts a schedule at a fixed II following the placer's order,
// leaving it in the destination's time and reservation arrays. It reports
// whether every operation was placed and, when not, whether the failure is
// II-invariant: every decision the attempt made would be the same at every
// larger II, so an attempt there replays this one step for step and runs
// out of its budget too. The order, the ranks, ASAP times, the budget,
// lastForced and the frontier do not read the II; the attempt reads it
// only where these conditions look, and it is II-invariant when all hold:
//
//  1. no loop-carried edge strictly sets estart or lstart: its term moves
//     by its distance at each II step, and a tying distance-0 term does not;
//  2. the frontier-II+1 clamp never raises a window's base: the clamp
//     only falls as the II grows;
//  3. no first-fit scan fails over a window as long as the II: the window
//     lengthens with the II and may then reach a free row;
//  4. no forced placement evicts a successor through a loop-carried edge:
//     that edge's test turns false as the II grows;
//  5. no reservation takes the multi-unit path (occupancy > II): at a
//     larger II it takes the one-unit path;
//  6. every cycle placed at, forced at or scanned, with its occupancy's
//     rows, lies in a span shorter than the II: then each row conflict met
//     is a conflict at the same cycle, at this II and at every larger one.
func (p *placer) tryPlace(buses, fpus, ii int) (bool, bool) {
	p.reset(buses, fpus, ii)
	time, res, placed, lastForced := p.time, p.res, p.placed, p.lastForced
	lat := p.lat
	table := p.table

	budget := 8*len(p.order) + 64
	frontier := 0 // latest placed start time: seeds new components nearby
	invariant := true
	lo, hi := inf, -inf // the span of condition 6; eviction never shrinks it
	for p.remaining > 0 {
		if budget--; budget < 0 {
			return false, invariant && hi-lo < ii
		}
		// Pick the unplaced op with the best (smallest) rank.
		v := p.popUnplaced()
		occ, class := p.occ[v], res[v].Class

		// estart0 and lstart0 are the bounds of the distance-0 edges alone.
		estart, lstart, estart0, lstart0 := -inf, inf, -inf, inf
		hasPred, hasSucc := false, false
		for _, e := range p.preds[v] {
			if e.From == v || !placed[e.From] {
				continue
			}
			hasPred = true
			t := time[e.From] + lat[e.From] - ii*e.Dist
			estart = max(estart, t)
			if e.Dist == 0 {
				estart0 = max(estart0, t)
			}
		}
		for _, e := range p.succs[v] {
			if e.To == v || !placed[e.To] {
				continue
			}
			hasSucc = true
			t := time[e.To] - lat[v] + ii*e.Dist
			lstart = min(lstart, t)
			if e.Dist == 0 {
				lstart0 = min(lstart0, t)
			}
		}
		if estart != estart0 || lstart != lstart0 {
			invariant = false // condition 1
		}
		// Self edges (dist >= 1) constrain II, not the start time, and MII
		// already accounts for them.

		// The candidate window — at most II cycles, forward or backward
		// depending on which neighbours are placed — goes to the table's
		// first-fit search, and PlaceInto reserves the cycle it finds.
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
				invariant = false // condition 2
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
			lo, hi = min(lo, from, t), max(hi, from+occ-1, t+occ-1)
			p.place(v, t)
			if t > frontier {
				frontier = t
			}
			continue
		}
		if n := (to-from)*step + 1; n >= ii {
			invariant = false // condition 3
		} else if n > 0 {
			lo, hi = min(lo, from, to), max(hi, from+occ-1, to+occ-1)
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
		lo, hi = min(lo, tf), max(hi, tf+occ-1)

		// Dependence victims: placed successors whose constraint against
		// time[v] = tf no longer holds. No placed predecessor can be one:
		// tf >= estart, the latest start they allow.
		for _, e := range p.succs[v] {
			if e.To != v && placed[e.To] && time[e.To] < tf+lat[v]-ii*e.Dist {
				p.evict(e.To)
				if e.Dist > 0 {
					invariant = false // condition 4
				}
			}
		}

		// Resource victims, read off the row-owner index. v itself is
		// unplaced, so it owns no row.
		p.victims = p.victims[:0]
		if occ <= ii {
			// Free one unit's conflicting rows: pick the unit of the class
			// with the fewest conflicting reservations (the first unit with
			// none ends the search).
			row := mrt.Row(tf, ii)
			bestUnit, bestCount := -1, inf
			for u := 0; u < table.Units(class) && bestCount > 0; u++ {
				if cnt := p.rowOwners(class, u, row, occ, false); cnt < bestCount {
					bestUnit, bestCount = u, cnt
				}
			}
			p.rowOwners(class, bestUnit, row, occ, true)
		} else {
			// Multi-unit reservation: evict every operation of the class
			// (rare: a non-pipelined op at an II below its occupancy).
			invariant = false // condition 5
			for w, ok := range placed {
				if ok && res[w].Class == class {
					p.victims = append(p.victims, w)
				}
			}
		}
		for _, w := range p.victims {
			p.evict(w)
		}
		if !table.PlaceInto(&res[v], class, tf, occ) {
			return false, false // class too small for the reservation at this II
		}
		p.place(v, tf)
		if tf > frontier {
			frontier = tf
		}
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
	return true, false
}
