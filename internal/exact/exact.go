// Package exact is a branch-and-bound exact solver for the
// modulo-scheduling + register-allocation problem over small loops. It is
// the cross-check backend for the heuristic pipeline: Solve minimizes the
// initiation interval subject to the same MRT resource constraints and
// dependence distance constraints the heuristic scheduler obeys, then
// minimizes the wands-only register count at that II, and reports which of
// the two minima it actually proved.
//
// The search is exact but budgeted: every placement attempt costs one node
// from a configurable budget, and when the budget runs out the solver
// keeps the best feasible schedule found so far (initially the heuristic
// one) and reports the deepest II it fully refuted as a valid lower bound.
// It never reports an optimum it cannot exhibit as a feasible, validated
// schedule, and never reports a bound it did not prove.
//
// The fixed-II feasibility question is decided by searching row
// assignments r_v in [0, II) with explicit unit branching in a real
// mrt.Table, while the unbounded stage components k_v (absolute time
// t_v = r_v + II*k_v) are left to a longest-path difference-constraint
// system: an edge u->v with distance d requires
//
//	k_v - k_u >= ceil((lat(u) - II*d + r_u - r_v) / II)
//
// which has a solution iff the constraint graph has no positive cycle
// (checked incrementally by Bellman-Ford as rows are assigned). Two
// symmetries are pruned: the kernel can be rotated so the first op in the
// search order sits on row 0, and fully-free units of a class are
// interchangeable.
package exact

import (
	"fmt"
	"sort"

	"repro/internal/ddg"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/regalloc"
	"repro/internal/sched"
)

const (
	// DefaultNodeBudget bounds the total number of placement attempts a
	// Solve call may spend across its II search and register packing.
	DefaultNodeBudget = 200_000
	// DefaultMaxOps is the largest loop the exact search attempts; bigger
	// loops get the heuristic schedule back with only the MII as a bound.
	DefaultMaxOps = 12
	// maxRegsSolutions caps how many alternative schedules the register
	// minimization phase examines at the optimal II before settling.
	maxRegsSolutions = 512
)

// Options configures a Solve call. The zero value picks the defaults.
type Options struct {
	// NodeBudget bounds placement attempts across the whole call;
	// <= 0 means DefaultNodeBudget.
	NodeBudget int
	// MaxOps disables the exact search (not the bounds) for loops with
	// more operations; <= 0 means DefaultMaxOps.
	MaxOps int
}

// Result is the outcome of a Solve call. Sched is always a feasible,
// validated schedule achieving II and MinRegs; the *Proved flags say
// whether those values were proved optimal, and LowerII / RegsLower are
// the sound lower bounds that back the claims.
type Result struct {
	// Sched is the best schedule found (the heuristic one when the exact
	// search found nothing better).
	Sched *sched.Schedule
	// II is Sched's initiation interval.
	II int
	// IIProved reports II == LowerII: every smaller II was refuted.
	IIProved bool
	// LowerII is the smallest II not yet refuted (>= MII, always sound).
	LowerII int
	// HeurII and HeurRegs record the heuristic baseline for gap reports.
	HeurII   int
	HeurRegs int
	// MinRegs is the register count of the best wands-only packing found
	// for Sched's lifetimes.
	MinRegs int
	// RegsLower is a schedule-independent lower bound on registers at II.
	RegsLower int
	// RegsProved reports MinRegs == RegsLower.
	RegsProved bool
	// Nodes is the number of placement attempts spent.
	Nodes int
	// Exhausted reports that the node budget ran out mid-search.
	Exhausted bool
	// Searched reports whether the loop was small enough for the exact
	// search (NumOps <= MaxOps); when false only the MII/MaxLive bounds
	// back the proved flags.
	Searched bool
}

// budget counts placement attempts against a limit; once out, it stays out.
type budget struct {
	nodes int
	limit int
	out   bool
}

func (b *budget) spend() bool {
	if b.out {
		return false
	}
	b.nodes++
	if b.nodes > b.limit {
		b.out = true
	}
	return !b.out
}

// Solve finds the minimum-II schedule of l on m, then minimizes its
// wands-only register count at that II, within the node budget. The
// heuristic scheduler provides the incumbent, so the result is never worse
// than the heuristic on either axis.
func Solve(l *ddg.Loop, m machine.Machine, opts *Options) (*Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.NodeBudget <= 0 {
		o.NodeBudget = DefaultNodeBudget
	}
	if o.MaxOps <= 0 {
		o.MaxOps = DefaultMaxOps
	}

	heur, err := sched.ModuloSchedule(l, m, nil)
	if err != nil {
		return nil, err
	}
	heurRegs := regalloc.MinRegs(lifetimes.Compute(heur), regalloc.EndFit)

	buses, fpus := m.Slots()
	mii := l.Analysis().MII(m.Model, buses, fpus)
	res := &Result{
		Sched:    heur,
		II:       heur.II,
		LowerII:  mii,
		HeurII:   heur.II,
		HeurRegs: heurRegs,
		Searched: l.NumOps() > 0 && l.NumOps() <= o.MaxOps,
	}
	b := &budget{limit: o.NodeBudget}

	var s *search
	if res.Searched {
		s = newSearch(l, m, b)
		for ii := mii; ii < heur.II && !b.out; ii++ {
			var found *sched.Schedule
			s.run(ii, func(cand *sched.Schedule) bool {
				found = cand
				return true
			})
			if found != nil {
				res.Sched, res.II = found, ii
				break
			}
			if !b.out {
				res.LowerII = ii + 1
			}
		}
	}
	res.IIProved = res.II == res.LowerII

	// Register minimization at the incumbent II: exact packing of the
	// incumbent's lifetimes first, then a bounded search over alternative
	// schedules at the same II when the packing alone does not reach the
	// schedule-independent lower bound.
	res.RegsLower = regsLowerBound(l, m.Model, res.II)
	regs, _ := packMinRegs(lifetimes.Compute(res.Sched), b)
	res.MinRegs = regs
	if res.Searched && regs > res.RegsLower && !b.out {
		best := res.Sched
		seen := 0
		s.run(res.II, func(cand *sched.Schedule) bool {
			seen++
			if r2, _ := packMinRegs(lifetimes.Compute(cand), b); r2 < regs {
				regs, best = r2, cand
			}
			return regs <= res.RegsLower || seen >= maxRegsSolutions || b.out
		})
		if regs < res.MinRegs {
			res.MinRegs, res.Sched = regs, best
		}
	}
	res.RegsProved = res.MinRegs == res.RegsLower
	res.Nodes = b.nodes
	res.Exhausted = b.out

	if err := res.Sched.Validate(); err != nil {
		return nil, fmt.Errorf("exact: solver produced an invalid schedule for %s: %w", l.Name, err)
	}
	return res, nil
}

// regsLowerBound is a schedule-independent lower bound on the wands-only
// register count of any feasible schedule at this II: each value's
// lifetime is at least the defining op's latency when it has a consumer
// (t_use + II*dist - t_def >= lat) and at least 1 otherwise, and MaxLive
// of any schedule is at least the total lifetime length over II.
func regsLowerBound(l *ddg.Loop, model machine.CycleModel, ii int) int {
	succs := l.Analysis().Succs()
	total := 0
	for v := range l.Ops {
		if !l.Ops[v].Kind.HasResult() {
			continue
		}
		lb := 1
		if len(succs[v]) > 0 {
			if lat := model.Latency(l.Ops[v].Kind); lat > lb {
				lb = lat
			}
		}
		total += lb
	}
	return (total + ii - 1) / ii
}

// search holds the fixed-II branch-and-bound state, reused across
// candidate IIs of one Solve call.
type search struct {
	l           *ddg.Loop
	model       machine.CycleModel
	buses, fpus int
	b           *budget

	order   []int // ops in assignment order: widest occupancy, cycles first
	rows    []int // op -> assigned row, -1 when unassigned
	lat     []int
	occ     []int
	cls     []mrt.Class
	onCycle []bool // op participates in a dependence cycle
	res     []mrt.Reservation
	k       []int // Bellman-Ford potentials scratch
	table   *mrt.Table

	ii         int
	onSolution func(*sched.Schedule) bool
	stopped    bool
}

func newSearch(l *ddg.Loop, m machine.Machine, b *budget) *search {
	n := l.NumOps()
	buses, fpus := m.Slots()
	s := &search{
		l:     l,
		model: m.Model,
		buses: buses,
		fpus:  fpus,
		b:     b,
		order: make([]int, n),
		rows:  make([]int, n),
		lat:   make([]int, n),
		occ:   make([]int, n),
		cls:   make([]mrt.Class, n),
		res:   make([]mrt.Reservation, n),
		k:     make([]int, n),
	}
	rec := l.Analysis().RecurrenceOps()
	s.onCycle = make([]bool, n)
	for v := range l.Ops {
		s.order[v] = v
		s.lat[v] = m.Model.Latency(l.Ops[v].Kind)
		s.occ[v] = m.Model.Occupancy(l.Ops[v].Kind)
		if l.Ops[v].Kind.IsMem() {
			s.cls[v] = mrt.Mem
		} else {
			s.cls[v] = mrt.FPU
		}
		s.onCycle[v] = rec[v]
	}
	// Hardest first: wide (non-pipelined) reservations constrain the MRT
	// the most, recurrence ops trigger the stage-feasibility pruning
	// earliest; ID order keeps the search deterministic.
	sort.SliceStable(s.order, func(a, b int) bool {
		va, vb := s.order[a], s.order[b]
		if s.occ[va] != s.occ[vb] {
			return s.occ[va] > s.occ[vb]
		}
		if s.onCycle[va] != s.onCycle[vb] {
			return s.onCycle[va]
		}
		return va < vb
	})
	return s
}

// run enumerates feasible schedules at exactly this II, invoking
// onSolution for each until it returns true (stop) or the space or budget
// is exhausted. It returns with the table fully released.
func (s *search) run(ii int, onSolution func(*sched.Schedule) bool) {
	s.ii = ii
	// A self edge u->u needs lat(u) <= II*dist regardless of placement.
	for _, e := range s.l.Edges {
		if e.From == e.To && s.lat[e.From] > ii*e.Dist {
			return
		}
	}
	if s.table == nil {
		s.table = mrt.New(ii, s.buses, s.fpus)
	} else {
		s.table.Reset(ii, s.buses, s.fpus)
	}
	for i := range s.rows {
		s.rows[i] = -1
	}
	s.onSolution = onSolution
	s.stopped = false
	s.dfs(0)
}

func (s *search) dfs(d int) {
	if s.stopped || s.b.out {
		return
	}
	if d == len(s.order) {
		if sc := s.buildSchedule(); sc != nil && s.onSolution(sc) {
			s.stopped = true
		}
		return
	}
	v := s.order[d]
	maxRow := s.ii
	if d == 0 {
		maxRow = 1 // rotating the kernel pins the first op to row 0
	}
	for r := 0; r < maxRow; r++ {
		s.rows[v] = r
		if s.stagesFeasible(v) {
			s.place(d, v, r)
		}
		s.rows[v] = -1
		if s.stopped || s.b.out {
			return
		}
	}
}

// stagesFeasible checks the difference-constraint system over the
// currently assigned rows for a positive cycle. Only edges among assigned
// ops constrain anything, and a new positive cycle must pass through the
// just-assigned op v, so ops outside every dependence cycle skip the check.
func (s *search) stagesFeasible(v int) bool {
	if !s.onCycle[v] {
		return true
	}
	k := s.k
	assigned := 0
	for i, r := range s.rows {
		k[i] = 0
		if r >= 0 {
			assigned++
		}
	}
	for iter := 0; iter <= assigned; iter++ {
		changed := false
		for _, e := range s.l.Edges {
			if e.From == e.To || s.rows[e.From] < 0 || s.rows[e.To] < 0 {
				continue
			}
			w := ceilDiv(s.lat[e.From]-s.ii*e.Dist+s.rows[e.From]-s.rows[e.To], s.ii)
			if k[e.From]+w > k[e.To] {
				k[e.To] = k[e.From] + w
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// place branches over the resource placements of op v at row r. Candidates
// come from the live table, with one representative per set of fully-free
// (interchangeable) units.
func (s *search) place(d, v, r int) {
	c, occ, t := s.cls[v], s.occ[v], s.table
	rsv := &s.res[v]
	rsv.Class = c
	if occ <= s.ii {
		freeSeen := false
		for u := 0; u < t.Units(c); u++ {
			if t.UnitUsed(c, u) == 0 {
				if freeSeen {
					continue
				}
				freeSeen = true
			}
			if !t.UnitFree(c, u, r, occ) {
				continue
			}
			if !s.b.spend() {
				return
			}
			rsv.Spans = append(rsv.Spans[:0], mrt.Span{Unit: u, Cycle: r, Occ: occ})
			s.placeAndRecurse(d, rsv, t)
			if s.stopped || s.b.out {
				return
			}
		}
		return
	}

	// occ > II: floor(occ/II) fully-free units plus the remainder rows on
	// one more. Fully-free units are interchangeable, so only their count
	// matters for the full spans, and only one fully-free remainder host
	// is tried.
	full, rem := occ/s.ii, occ%s.ii
	nFree := 0
	for u := 0; u < t.Units(c); u++ {
		if t.UnitUsed(c, u) == 0 {
			nFree++
		}
	}
	if rem == 0 {
		if nFree < full || !s.b.spend() {
			return
		}
		rsv.Spans = rsv.Spans[:0]
		s.appendFreeSpans(rsv, c, r, full, -1)
		s.placeAndRecurse(d, rsv, t)
		return
	}
	freeSeen := false
	for u := 0; u < t.Units(c); u++ {
		hostFree := t.UnitUsed(c, u) == 0
		if hostFree {
			if freeSeen {
				continue
			}
			freeSeen = true
		}
		if !t.UnitFree(c, u, r, rem) {
			continue
		}
		avail := nFree
		if hostFree {
			avail--
		}
		if avail < full {
			continue
		}
		if !s.b.spend() {
			return
		}
		rsv.Spans = append(rsv.Spans[:0], mrt.Span{Unit: u, Cycle: r, Occ: rem})
		s.appendFreeSpans(rsv, c, r, full, u)
		s.placeAndRecurse(d, rsv, t)
		if s.stopped || s.b.out {
			return
		}
	}
}

// appendFreeSpans appends whole-II spans on the first `count` fully-free
// units of class c, skipping unit `skip`.
func (s *search) appendFreeSpans(rsv *mrt.Reservation, c mrt.Class, r, count, skip int) {
	for u := 0; u < s.table.Units(c) && count > 0; u++ {
		if u == skip || s.table.UnitUsed(c, u) != 0 {
			continue
		}
		rsv.Spans = append(rsv.Spans, mrt.Span{Unit: u, Cycle: r, Occ: s.ii})
		count--
	}
}

func (s *search) placeAndRecurse(d int, rsv *mrt.Reservation, t *mrt.Table) {
	if !t.PlaceExact(*rsv) {
		// Candidates are enumerated against the live table, so this
		// cannot fail; guard anyway rather than corrupt the search.
		return
	}
	s.dfs(d + 1)
	t.Release(*rsv)
}

// buildSchedule solves the difference-constraint system over the full row
// assignment for the minimal stage potentials and materializes a
// standalone Schedule (copied spans: the search backtracks afterwards).
func (s *search) buildSchedule() *sched.Schedule {
	n := len(s.rows)
	k := s.k
	for i := range k {
		k[i] = 0
	}
	for iter := 0; ; iter++ {
		changed := false
		for _, e := range s.l.Edges {
			w := ceilDiv(s.lat[e.From]-s.ii*e.Dist+s.rows[e.From]-s.rows[e.To], s.ii)
			if k[e.From]+w > k[e.To] {
				k[e.To] = k[e.From] + w
				changed = true
			}
		}
		if !changed {
			break
		}
		if iter > n {
			return nil // positive cycle; unreachable after stagesFeasible
		}
	}
	minK := 0
	for _, kv := range k {
		if kv < minK {
			minK = kv
		}
	}
	sc := &sched.Schedule{
		Loop:  s.l,
		II:    s.ii,
		Time:  make([]int, n),
		Res:   make([]mrt.Reservation, n),
		Model: s.model,
		Buses: s.buses,
		FPUs:  s.fpus,
	}
	for v := 0; v < n; v++ {
		sc.Time[v] = s.rows[v] + s.ii*(k[v]-minK)
		spans := make([]mrt.Span, len(s.res[v].Spans))
		copy(spans, s.res[v].Spans)
		sc.Res[v] = mrt.Reservation{Class: s.res[v].Class, Spans: spans}
	}
	return sc
}

// ceilDiv returns ceil(a/b) for b > 0 and any sign of a.
func ceilDiv(a, b int) int {
	if a >= 0 {
		return (a + b - 1) / b
	}
	return -((-a) / b)
}
