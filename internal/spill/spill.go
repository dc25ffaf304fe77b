// Package spill implements register-constrained software pipelining: when
// the registers a schedule requires exceed the architected register file,
// spill code is added and the loop is rescheduled (the paper's Section 3.2,
// following the heuristics of Llosa et al., MICRO-29).
//
// Each round schedules the loop, allocates registers (wands-only end-fit),
// and — if the requirement exceeds the file — spills the most profitable
// values: the longest lifetime per use, excluding recurrence values (whose
// spilling would inflate RecMII) and values created by earlier spills.
// ddg.Loop.Spill gives a spilled value a store after its definition and
// one reload per distinct consumer distance; the reload feeds the
// consumers, cutting the long register lifetime into short ones at the
// price of extra memory traffic, which can itself raise the II. When no
// candidate remains, the pass trades cycles directly by forcing a larger
// II, which lowers the overlap and hence the pressure. A loop that still
// does not fit is reported as unschedulable — exactly what the paper
// observes for the 8w1 configuration with a 32-register file.
//
// The pass works in a Scratch: spill code goes into a working loop that is
// copied from the base loop (ddg.Loop.CopyFrom) in the scratch's own
// storage, and every reschedule writes into one schedule buffer with the
// scratch's scheduling workspace. (*Scratch).ScheduleFrom, the batch entry
// point, reports the outcome and copies nothing out; Schedule runs on a
// fresh Scratch and returns its accepted schedule and loop.
package spill

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ddg"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/sched"
)

// maxRounds bounds the spill-reschedule iterations.
const maxRounds = 24

// Options tunes the spill pass.
type Options struct {
	// Workspace, when set, serves every schedule of a Schedule call from
	// one reusable arena (see sched.Workspace). Not safe for concurrent
	// use. When nil, the call schedules in a fresh one.
	Workspace *sched.Workspace
}

// Result reports the outcome of register-constrained scheduling.
type Result struct {
	// OK is false when the loop cannot be scheduled within the register
	// file even with spill code and II growth.
	OK bool
	// Sched is the final schedule from Schedule (nil when !OK): the base
	// schedule itself when it already fits, otherwise the call's own
	// reschedule. ScheduleFrom leaves it nil.
	Sched *sched.Schedule
	// Loop is the final loop including spill code: Sched.Loop, and nil
	// when Sched is. It is the base schedule's loop when no spill code was
	// kept (the base fits, or the pass grew the pristine loop's II), the
	// call's own working loop otherwise.
	Loop *ddg.Loop
	// BaseII is the II of the unconstrained schedule (before spilling).
	BaseII int
	// SpillStores and SpillLoads count inserted operations.
	SpillStores, SpillLoads int
	// Rounds is the number of spill-reschedule iterations used.
	Rounds int

	ii int // the accepted schedule's II
}

// II returns the final initiation interval (0 when !OK).
func (r Result) II() int { return r.ii }

// accept returns r marked OK with s, the accepted schedule.
func (r Result) accept(s *sched.Schedule) Result {
	r.OK, r.ii = true, s.II
	return r
}

// Scratch is the working state of the spill pass: the scheduling
// workspace every reschedule runs in, a lifetime set with a search
// permanently bound to it, the schedule every reschedule writes into, the
// candidate list each round ranks, and the working loop spill code goes
// into. A Scratch grows to the largest loop it has worked on, so a caller
// that keeps one across calls allocates nothing per call proportional to
// the loop's size. It is NOT safe for concurrent use, and its schedule
// buffer keeps the last loop it rescheduled reachable: the working loop,
// or the base schedule's loop when the pass grew that loop's II.
type Scratch struct {
	ws     *sched.Workspace
	ls     lifetimes.Set
	search *regalloc.Search
	buf    sched.Schedule
	cands  []candidate
	loop   ddg.Loop
}

// NewScratch returns an empty spill scratch with its own scheduling
// workspace.
func NewScratch() *Scratch {
	s := &Scratch{ws: sched.NewWorkspace()}
	s.search = regalloc.NewSearch(&s.ls)
	return s
}

// Workspace returns the scheduling workspace the scratch's reschedules run
// in, for the caller's own schedules of the loops it hands the pass.
func (scr *Scratch) Workspace() *sched.Workspace { return scr.ws }

// Schedule software-pipelines the loop under the machine's register file
// size, allocating registers end-fit. The loop must already be
// width-transformed for the machine; it is never modified. Schedule runs
// the pass of ScheduleFrom on a fresh Scratch over a base schedule of a
// clone of l, so the accepted schedule and loop its Result carries belong
// to the call alone.
func Schedule(l *ddg.Loop, m machine.Machine, opts *Options) (Result, error) {
	scr := NewScratch()
	if opts != nil && opts.Workspace != nil {
		scr.ws = opts.Workspace
	}
	base, err := sched.ModuloSchedule(l.Clone(), m, &sched.Options{Workspace: scr.ws})
	if err != nil {
		return Result{}, fmt.Errorf("spill: base schedule: %w", err)
	}
	res, s, err := scr.pass(base, m)
	if err != nil || !res.OK {
		return res, err
	}
	res.Sched, res.Loop = s, s.Loop
	return res, nil
}

// ScheduleFrom is Schedule starting from base, the unconstrained modulo
// schedule of base.Loop on m's buses, FPUs and cycle model. The base
// schedule does not depend on the register file, so a caller that
// evaluates one loop under several register files schedules it once and
// runs the pass once per file. The pass never modifies base or base.Loop.
// ScheduleFrom reports the outcome only: OK, II, BaseII, the spill counts
// and Rounds. Its Result carries no schedule or loop (Sched and Loop are
// nil), because the accepted schedule lives in the scratch, which the next
// call reuses. ScheduleFrom returns an error when m is invalid or base
// targets another machine.
func (scr *Scratch) ScheduleFrom(base *sched.Schedule, m machine.Machine) (Result, error) {
	res, _, err := scr.pass(base, m)
	return res, err
}

// pass is the spill pass of both entry points, run in the scratch. It
// returns the result, with Sched and Loop unset, and the accepted schedule
// (nil when !OK): base itself, or the scratch's buffer, whose loop is
// base.Loop or the working loop.
func (scr *Scratch) pass(base *sched.Schedule, m machine.Machine) (Result, *sched.Schedule, error) {
	if err := m.Validate(); err != nil {
		return Result{}, nil, fmt.Errorf("spill: %w", err)
	}
	if buses, fpus := m.Slots(); base.Buses != buses || base.FPUs != fpus || base.Model != m.Model {
		return Result{}, nil, fmt.Errorf("spill: base schedule targets %d buses, %d FPUs and z=%d, machine %s has %d, %d and z=%d",
			base.Buses, base.FPUs, base.Model.Z, m, buses, fpus, m.Model.Z)
	}
	avail := m.RF.Regs
	l := base.Loop

	res := Result{BaseII: base.II}

	// One lifetime set and one allocator search are reused across every
	// spill round and every candidate II of the growth fallbacks: each
	// probe rebinds them instead of recomputing orders and reallocating
	// scratch. Every reschedule writes into the scratch's schedule buffer.
	ls, search := &scr.ls, scr.search

	// Spill rounds interleaved with II escalation: spilling trims long
	// lifetimes at the price of memory traffic; raising the II floor
	// shrinks the overlap-driven share of the pressure. Whenever a round
	// fails to close the gap, the II floor rises a quarter — without this
	// the two mechanisms can feed each other (spill stores congest the
	// buses, stretching the very lifetimes being spilled). The II may
	// grow to 8x the first feasible II plus 16; a loop that does not fit
	// within that bound is reported unschedulable. Round 0 probes base
	// itself; cur becomes the working loop, a copy of l, before the first
	// spill.
	cur, s := l, base
	minII := 0
	capII := res.BaseII*8 + 16
	bestGap := int(^uint(0) >> 1)
	for round := 0; round <= maxRounds; round++ {
		if minII > capII {
			break // a compiler does not slow a loop down without bound
		}
		res.Rounds = round
		lifetimes.ComputeInto(ls, s)
		search.Reset(ls)
		if search.Fits(avail, regalloc.EndFit) {
			return res.accept(s), s, nil
		}
		if round == maxRounds {
			break
		}

		gap := search.MaxLive() - avail
		if gap < 1 {
			gap = 1 // MaxLive fits but the packing does not: fragmentation
		}
		if gap >= bestGap {
			minII = s.II + s.II/4 + 1
		} else {
			bestGap = gap
		}

		scr.cands = candidates(cur, ls, s.Model, scr.cands)
		if cands := scr.cands; len(cands) > 0 {
			k := gap/2 + 1
			if k > len(cands) {
				k = len(cands)
			}
			if k > 16 {
				k = 16
			}
			if cur == l {
				scr.loop.CopyFrom(l)
				cur = &scr.loop
			}
			for _, c := range cands[:k] {
				st, lds := cur.Spill(c.op)
				res.SpillStores += st
				res.SpillLoads += lds
			}
		} else if minII <= s.II {
			minII = s.II + s.II/4 + 1
		}
		var err error
		s, err = sched.ModuloSchedule(cur, m, &sched.Options{MinII: minII, Workspace: scr.ws, Into: &scr.buf})
		if err != nil {
			return Result{}, nil, fmt.Errorf("spill: reschedule round %d: %w", round+1, err)
		}
	}

	// Fallback 1: force larger IIs on the spilled loop — less overlap,
	// shorter relative lifetimes, lower pressure. The cap scales from
	// wherever the spill rounds left the II, not just the original base,
	// so heavy spilling cannot strand the search below its own schedule.
	maxII := capII
	if alt := s.II * 2; alt > maxII {
		maxII = alt
	}
	if g := scr.growII(cur, m, avail, s.II+1, maxII); g != nil {
		return res.accept(g), g, nil
	}

	// Fallback 2: abandon the spill code and grow the II of the original
	// loop instead. Spill stores congest the buses and can hold pressure
	// up at any II; the pristine loop's pressure always falls with the II
	// (only recurrence values resist), so this path rescues loops the
	// spilling dug into a hole.
	if g := scr.growII(l, m, avail, res.BaseII+1, capII); g != nil {
		res.SpillStores, res.SpillLoads = 0, 0
		return res.accept(g), g, nil
	}

	// Fallback 3: the pressure that survives any II is the values consumed
	// in later iterations (each holds ~distance registers forever). Spill
	// exactly those — identified straight off the graph — and grow the II
	// of the result; at a large II the extra memory traffic is free. cur
	// is dead, so the working loop becomes a fresh copy of l. Every value
	// is picked off the graph before the first spill, which rewrites cur3
	// and its analysis.
	scr.loop.CopyFrom(l)
	cur3 := &scr.loop
	rec := cur3.RecurrenceOps()
	succs := cur3.Succs()
	var carried []int
	for v, op := range cur3.Ops {
		if !op.Kind.HasResult() || op.Spill || rec[v] {
			continue
		}
		for _, e := range succs[v] {
			if e.Dist > 0 && e.To != v {
				carried = append(carried, v)
				break
			}
		}
	}
	stores3, loads3 := 0, 0
	for _, v := range carried {
		st, lds := cur3.Spill(v)
		stores3 += st
		loads3 += lds
	}
	if stores3 > 0 {
		if g := scr.growII(cur3, m, avail, res.BaseII+1, 2*capII); g != nil {
			res.SpillStores, res.SpillLoads = stores3, loads3
			return res.accept(g), g, nil
		}
	}
	return res, nil, nil
}

// growII returns the schedule at the smallest II in [startII, maxII] at
// which the loop's allocation fits avail registers, or nil when none
// does. Every candidate is scheduled into the scratch's buffer, so the
// returned schedule is that buffer; lifetimes go into the shared set and
// the shared search is rebound at each candidate. Far from the target it
// steps geometrically (pressure falls roughly as 1/II, so fine steps waste
// reschedules); within two registers of fitting it steps by one, because
// pressure is not locally monotone and a narrow fitting window is easy to
// jump over.
func (scr *Scratch) growII(l *ddg.Loop, m machine.Machine, avail, startII, maxII int) *sched.Schedule {
	ls, search := &scr.ls, scr.search
	for ii := startII; ii <= maxII; {
		forced, err := sched.ModuloSchedule(l, m, &sched.Options{MinII: ii, Workspace: scr.ws, Into: &scr.buf})
		if err != nil {
			return nil
		}
		lifetimes.ComputeInto(ls, forced)
		search.Reset(ls)
		if search.Fits(avail, regalloc.EndFit) {
			return forced
		}
		if forced.II > ii {
			ii = forced.II // skip ahead if the scheduler already overshot
		}
		if search.MaxLive() <= avail+2 {
			ii++
		} else {
			ii += 1 + ii/8
		}
	}
	return nil
}

// candidate is a spillable value with its profitability score.
type candidate struct {
	op    int
	score float64
}

// candidates returns spillable values, most profitable first, in out's
// storage: longest lifetime per use wins (each use costs a reload, so a
// long lifetime with few uses frees the most register-cycles per added
// memory operation).
func candidates(l *ddg.Loop, ls *lifetimes.Set, model machine.CycleModel, out []candidate) []candidate {
	rec := l.RecurrenceOps()
	succs := l.Succs()
	// A spill only pays off when the lifetime is clearly longer than the
	// reload path it introduces.
	minLen := model.ArithLat + model.StoreLat + 2
	out = out[:0]
	for _, v := range ls.Values {
		op := l.Ops[v.Op]
		if op.Spill || rec[v.Op] || v.Uses == 0 || v.Len <= minLen {
			continue
		}
		// Skip values already fully consumed by spill stores (re-spill).
		allSpill := true
		for _, e := range succs[v.Op] {
			if !l.Ops[e.To].Spill {
				allSpill = false
				break
			}
		}
		if allSpill {
			continue
		}
		out = append(out, candidate{op: v.Op, score: float64(v.Len) / float64(1+v.Uses)})
	}
	// Higher score first, then lower op: a strict total order.
	slices.SortFunc(out, func(a, b candidate) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.op, b.op)
	})
	return out
}
