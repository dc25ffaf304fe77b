// Package regalloc implements register allocation for software-pipelined
// loops using the wands-only strategy with end-fit placement and adjacency
// ordering (Rau, Lee, Tirumalai, Schlansker: "Register allocation for
// software pipelined loops", PLDI'92) — the allocator the paper uses
// (Section 1).
//
// In a rotating register file of R registers with an initiation interval
// II, allocation reduces to packing circular arcs: the lifetime of a value
// that starts at absolute cycle s with length L may be placed on the
// allocation torus (circumference R*II) at any position s + k*II (mod
// R*II), where the integer k is the register choice; two lifetimes conflict
// iff their arcs overlap. "Wands only" means each lifetime occupies one
// contiguous arc (no splitting). Adjacency ordering processes lifetimes by
// increasing start time; end-fit chooses, among the feasible register
// offsets, the one whose arc start lands closest after the end of an
// already-placed arc, minimizing wasted space.
//
// The packing engine keeps the occupied cycles of the torus in a uint64
// bitset (mirroring the scheduler's bitset reservation table). The
// candidate scan of one arc is a forward bit scan to the next occupied
// cycle, which both tests the candidate and skips every later candidate
// that lies at or before that cycle; end-fit's snugness score is a
// nearest-set-bit walk backwards from the candidate start. A Search value
// carries the per-set analyses (placement orders, total/max lifetime
// length, MaxLive) and the attempt scratch across the upward
// register-count scan of Allocate/MinRegs and across the spill pass's
// TryAllocate/MinRegs/II-growth sequence, so repeated probes of the same
// lifetime set stop re-sorting and re-allocating. Cheap lower bounds
// (per-arc and total occupied cycles against R*II, MaxLive against R)
// reject provably infeasible sizes before any placement work. Placements
// are bit-identical to the original arc-scan implementation; the
// differential and fuzz tests in this package pin that.
//
// Rau et al. report this strategy allocates within about one register of
// the MaxLive lower bound; the property tests pin that contract here.
package regalloc

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/lifetimes"
)

// Allocation maps every value to a register offset on the rotating file.
type Allocation struct {
	// Regs is the number of registers used.
	Regs int
	// II is the initiation interval of the underlying schedule.
	II int
	// Offset[i] is the register offset k chosen for Values[i] of the
	// lifetime set: the arc starts at (start_i + k*II) mod (Regs*II).
	Offset []int
}

// Strategy selects the placement heuristic.
type Strategy int

const (
	// EndFit places each arc where it ends closest to the start of the
	// following occupied arc's gap (the paper's allocator).
	EndFit Strategy = iota
	// FirstFit places each arc at the first feasible offset (the ablation
	// baseline).
	FirstFit
)

func (s Strategy) String() string {
	if s == EndFit {
		return "end-fit"
	}
	return "first-fit"
}

// arc is an occupied interval on the torus, possibly wrapping.
type arc struct {
	start, len int
}

func overlaps(a, b arc, circ int) bool {
	// Two arcs on a circle overlap iff either starts within the other.
	d1 := mod(b.start-a.start, circ)
	if d1 < a.len {
		return true
	}
	d2 := mod(a.start-b.start, circ)
	return d2 < b.len
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Search is a reusable allocation workspace bound to one lifetime set.
// Binding (NewSearch/Reset) computes the per-set aggregates once; every
// subsequent TryAllocate/Fits/MinRegs/Allocate call reuses the placement
// orders, the offset buffer and the torus bitset instead of re-deriving
// them per register size. A Search is not safe for concurrent use.
type Search struct {
	set *lifetimes.Set

	// Per-set aggregates, computed on Reset.
	totalLen int
	maxLen   int
	minLen   int
	maxLive  int

	// Placement orders, computed lazily: a one-shot fit probe usually
	// needs only adjacency ordering.
	adjOrder  []int
	longOrder []int
	haveAdj   bool
	haveLong  bool

	// Attempt scratch, reused across sizes and orderings.
	offsets  []int
	words    []uint64
	pressure []int
}

// NewSearch returns a Search bound to the set.
func NewSearch(set *lifetimes.Set) *Search {
	s := &Search{}
	s.Reset(set)
	return s
}

// Reset rebinds the Search to a (possibly mutated) lifetime set, reusing
// all scratch storage. Callers that recompute lifetimes into the same Set
// value must Reset before the next allocation probe.
func (s *Search) Reset(set *lifetimes.Set) {
	s.set = set
	s.haveAdj, s.haveLong = false, false
	totalLen, maxLen, minLen := 0, 0, 1
	for _, v := range set.Values {
		totalLen += v.Len
		if v.Len > maxLen {
			maxLen = v.Len
		}
		if v.Len < minLen {
			minLen = v.Len
		}
	}
	s.totalLen, s.maxLen, s.minLen = totalLen, maxLen, minLen
	s.pressure = set.PressureInto(s.pressure)
	maxLive := 0
	for _, p := range s.pressure {
		if p > maxLive {
			maxLive = p
		}
	}
	s.maxLive = maxLive
}

// MaxLive returns the set's MaxLive lower bound, cached at Reset.
func (s *Search) MaxLive() int { return s.maxLive }

// feasible applies the cheap lower-bound prechecks for a register count:
// every arc and the total occupied cycles must fit the torus (placed arcs
// are disjoint, so their lengths sum to at most R*II), and no allocation
// can use fewer than MaxLive registers. All three reject only sizes the
// greedy placement provably fails at, so skipping them keeps results
// identical to attempting the placement. Sets that fail
// lifetimes.Set.Validate (non-positive lengths) never allocate.
func (s *Search) feasible(regs int) bool {
	if regs < 1 || s.minLen < 1 {
		return false
	}
	circ := regs * s.set.II
	return s.maxLen <= circ && s.totalLen <= circ && s.maxLive <= regs
}

// TryAllocate attempts to place all lifetimes into exactly regs registers:
// first with adjacency (start-time) ordering, then — at tight sizes where
// adjacency fragmentation loses a register or two — with longest-first
// ordering. It returns the allocation, or ok=false when both orderings
// fail at this size.
func (s *Search) TryAllocate(regs int, strat Strategy) (*Allocation, bool) {
	if !s.Fits(regs, strat) {
		return nil, false
	}
	off := make([]int, len(s.offsets))
	copy(off, s.offsets)
	return &Allocation{Regs: regs, II: s.set.II, Offset: off}, true
}

// Fits is TryAllocate without materializing the Allocation: it reports
// whether the set packs into exactly regs registers, leaving the chosen
// offsets in the Search scratch. The spill pass's fit probes use it.
func (s *Search) Fits(regs int, strat Strategy) bool {
	if !s.feasible(regs) {
		return false
	}
	return s.place(regs, strat, false) || s.place(regs, strat, true)
}

// order returns the cached placement order, computing it on first use.
func (s *Search) order(longestFirst bool) []int {
	if longestFirst {
		if !s.haveLong {
			s.longOrder = sortOrder(s.longOrder, s.set.Values, true)
			s.haveLong = true
		}
		return s.longOrder
	}
	if !s.haveAdj {
		s.adjOrder = sortOrder(s.adjOrder, s.set.Values, false)
		s.haveAdj = true
	}
	return s.adjOrder
}

// sortOrder builds a placement order into buf. Adjacency ordering is by
// start time, then by decreasing length, then by op; the alternative
// orders longest lifetimes first (they are the hardest arcs to place).
// The final index tie-break only matters for sets with duplicate
// (Start, Len, Op) triples, which real lifetime sets never contain.
func sortOrder(buf []int, vals []lifetimes.Value, longestFirst bool) []int {
	buf = buf[:0]
	for i := range vals {
		buf = append(buf, i)
	}
	slices.SortFunc(buf, func(a, b int) int {
		va, vb := vals[a], vals[b]
		if longestFirst {
			if c := cmp.Compare(vb.Len, va.Len); c != 0 {
				return c
			}
			if c := cmp.Compare(va.Start, vb.Start); c != 0 {
				return c
			}
		} else {
			if c := cmp.Compare(va.Start, vb.Start); c != 0 {
				return c
			}
			if c := cmp.Compare(vb.Len, va.Len); c != 0 {
				return c
			}
		}
		if c := cmp.Compare(va.Op, vb.Op); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return buf
}

// place runs one greedy packing attempt at the given size and ordering,
// leaving the chosen offsets in s.offsets on success.
func (s *Search) place(regs int, strat Strategy, longestFirst bool) bool {
	set := s.set
	ii := set.II
	circ := regs * ii
	order := s.order(longestFirst)

	words := (circ + 63) / 64
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		clear(s.words)
	}
	if cap(s.offsets) < len(set.Values) {
		s.offsets = make([]int, len(set.Values))
	} else {
		s.offsets = s.offsets[:len(set.Values)]
	}
	occ := torus{circ: circ, words: s.words}

	for _, i := range order {
		v := set.Values[i]
		k := occ.fit(mod(v.Start, circ), v.Len, ii, regs, strat)
		if k < 0 {
			return false
		}
		s.offsets[i] = k
		occ.set(mod(v.Start+k*ii, circ), v.Len)
	}
	return true
}

// MinRegs returns the smallest register count the strategy achieves,
// searching upward from the MaxLive lower bound. The search is bounded by
// a size at which the greedy placement provably succeeds (every placed arc
// can block only a bounded number of candidate offsets of a new arc), so
// the loop always terminates.
func (s *Search) MinRegs(strat Strategy) int {
	lower := s.maxLive
	if lower == 0 {
		return 0
	}
	set := s.set
	n := len(set.Values)
	sumTurns, maxTurns := 0, 0
	for _, v := range set.Values {
		turns := (v.Len + set.II - 1) / set.II
		sumTurns += turns
		if turns > maxTurns {
			maxTurns = turns
		}
	}
	// A placed arc of length La blocks at most ceil((La+Lnew)/II)+1 of the
	// R candidate offsets of a new arc, so R beyond this cap always leaves
	// a free offset for every arc in sequence.
	cap := sumTurns + n*(maxTurns+2) + 1
	for r := lower; r <= cap; r++ {
		if s.Fits(r, strat) {
			return r
		}
	}
	return cap
}

// Allocate finds the smallest register count that fits, searching upward
// from the MaxLive lower bound, and returns the allocation. maxRegs caps
// the search; allocation failure within the cap returns an error (the
// caller inserts spill code or raises the II).
func (s *Search) Allocate(maxRegs int, strat Strategy) (*Allocation, error) {
	if err := s.set.Validate(); err != nil {
		return nil, err
	}
	lower := s.maxLive
	if lower == 0 {
		return &Allocation{Regs: 0, II: s.set.II}, nil
	}
	for r := lower; r <= maxRegs; r++ {
		if a, ok := s.TryAllocate(r, strat); ok {
			return a, nil
		}
	}
	return nil, fmt.Errorf("regalloc: %d lifetimes do not fit in %d registers (MaxLive %d)",
		len(s.set.Values), maxRegs, lower)
}

// TryAllocate attempts to place all lifetimes into exactly regs registers.
// Callers probing many sizes over one set should hold a Search instead.
func TryAllocate(set *lifetimes.Set, regs int, strat Strategy) (*Allocation, bool) {
	return NewSearch(set).TryAllocate(regs, strat)
}

// Allocate finds the smallest register count that fits within maxRegs.
func Allocate(set *lifetimes.Set, maxRegs int, strat Strategy) (*Allocation, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return NewSearch(set).Allocate(maxRegs, strat)
}

// MinRegs returns the smallest register count the strategy achieves.
func MinRegs(set *lifetimes.Set, strat Strategy) int {
	return NewSearch(set).MinRegs(strat)
}

// torus is a uint64-bitset occupancy map of the allocation torus: bit p is
// set iff cycle p of the circumference is covered by a placed arc.
type torus struct {
	circ  int
	words []uint64
}

// fit returns the register offset k in [0, regs) the strategy picks for an
// arc of the given length whose candidate starts are (start + k*ii) mod
// circ, or -1 when every candidate overlaps a placed arc. start must be in
// [0, circ) and length in [1, circ].
//
// The scan jumps between occupied cycles instead of testing every
// candidate. For an evaluated candidate p, let b be the first occupied
// cycle at or after p (wrapping); p is free iff b lies at least length
// cycles ahead. Every later candidate up to and including b is busy when p
// is, and either busy or a multiple of ii further from the occupied cycle
// behind it when p is free (the nearest occupied cycle behind it is the
// same). None of them can beat p or tie with it, so the scan moves to the
// first candidate past b. The end-fit score of a candidate reached that way
// is found within the ii cycles just stepped over, which contain b; only
// k = 0 can walk further back. Offsets are those of testing every
// candidate in turn.
func (t torus) fit(start, length, ii, regs int, strat Strategy) int {
	bestK, bestScore := -1, t.circ+1
	p := start
	for k := 0; k < regs; {
		ahead := t.freeAhead(p)
		if ahead >= length {
			if strat == FirstFit {
				return k
			}
			// End-fit: distance from the end of the nearest preceding
			// occupied arc to our start; smaller = snugger fit. A zero gap
			// cannot be beaten, and ties keep the earlier offset, so stop
			// scanning at zero.
			if score := t.freeBehind(p); score < bestScore {
				bestScore, bestK = score, k
				if bestScore == 0 {
					break
				}
			}
		}
		// Skip every candidate up to and including the occupied cycle b.
		// step*ii < circ whenever the scan goes on (k+step < regs), so one
		// subtraction wraps p. Most busy candidates start on an occupied
		// cycle (ahead == 0), so the division runs only for real jumps.
		step := 1
		if ahead >= ii {
			step += ahead / ii
		}
		k += step
		if p += step * ii; p >= t.circ {
			p -= t.circ
		}
	}
	return bestK
}

// freeAhead returns the number of free cycles from p forward (wrapping)
// up to the first occupied cycle, or circ when the torus is empty. An arc
// of length L fits at a start p in [0, circ) iff freeAhead(p) >= L.
func (t torus) freeAhead(p int) int {
	if b := nextSet(t.words, p, t.circ-1); b >= 0 {
		return b - p
	}
	if b := nextSet(t.words, 0, p-1); b >= 0 {
		return b + t.circ - p
	}
	return t.circ
}

// freeBehind returns the number of free cycles immediately preceding p
// (walking backwards, wrapping), or circ when the torus is empty. When p
// itself is free this equals the distance from the end of the nearest
// preceding placed arc — the end-fit snugness score: the nearest occupied
// cycle b walking backwards has b+1 free, so b+1 is exactly where the arc
// covering b ends, and every other arc end lies at or behind it.
func (t torus) freeBehind(p int) int {
	if b := prevSet(t.words, 0, p-1); b >= 0 {
		return p - 1 - b
	}
	if b := prevSet(t.words, p, t.circ-1); b >= 0 {
		return p + t.circ - 1 - b
	}
	return t.circ
}

// set marks the window [start, start+length) mod circ occupied.
func (t torus) set(start, length int) {
	if end := start + length; end <= t.circ {
		setBusy(t.words, start, end)
	} else {
		setBusy(t.words, start, t.circ)
		setBusy(t.words, 0, end-t.circ)
	}
}

// wordMask returns the mask with bits [lo, hi) set; 0 <= lo < hi <= 64.
func wordMask(lo, hi int) uint64 {
	return (^uint64(0) << lo) & (^uint64(0) >> (64 - hi))
}

// setBusy sets bits [from, to) (no wrap).
func setBusy(words []uint64, from, to int) {
	fw, lw := from>>6, (to-1)>>6
	if fw == lw {
		words[fw] |= wordMask(from&63, (to-1)&63+1)
		return
	}
	words[fw] |= wordMask(from&63, 64)
	for w := fw + 1; w < lw; w++ {
		words[w] = ^uint64(0)
	}
	words[lw] |= wordMask(0, (to-1)&63+1)
}

// prevSet returns the largest set bit index in [lo, hi], or -1.
func prevSet(words []uint64, lo, hi int) int {
	if hi < lo {
		return -1
	}
	fw, lw := lo>>6, hi>>6
	w := words[lw] & wordMask(0, hi&63+1)
	if lw == fw {
		w &= wordMask(lo&63, 64)
		if w == 0 {
			return -1
		}
		return lw<<6 + 63 - bits.LeadingZeros64(w)
	}
	if w != 0 {
		return lw<<6 + 63 - bits.LeadingZeros64(w)
	}
	for i := lw - 1; i > fw; i-- {
		if words[i] != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(words[i])
		}
	}
	w = words[fw] & wordMask(lo&63, 64)
	if w == 0 {
		return -1
	}
	return fw<<6 + 63 - bits.LeadingZeros64(w)
}

// nextSet returns the smallest set bit index in [lo, hi], or -1.
func nextSet(words []uint64, lo, hi int) int {
	if hi < lo {
		return -1
	}
	i, lw := lo>>6, hi>>6
	w := words[i] & wordMask(lo&63, 64)
	for {
		if i == lw {
			w &= wordMask(0, hi&63+1)
		}
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
		if i++; i > lw {
			return -1
		}
		w = words[i]
	}
}

// valEvent is one arc endpoint of the Validate sweep.
type valEvent struct {
	pos   int
	delta int8 // +1 arc starts, -1 arc ends (ends sort first at equal pos)
	idx   int32
}

// Validate checks that offsets are in range and no two arcs of the
// allocation overlap, by sweeping the sorted arc endpoints (coverage ever
// reaching two means an overlap) instead of testing every pair.
func (a *Allocation) Validate(set *lifetimes.Set) error {
	if len(a.Offset) != len(set.Values) {
		return fmt.Errorf("regalloc: %d offsets for %d values", len(a.Offset), len(set.Values))
	}
	if a.Regs == 0 {
		if len(set.Values) != 0 {
			return fmt.Errorf("regalloc: zero registers with %d values", len(set.Values))
		}
		return nil
	}
	circ := a.Regs * a.II
	evs := make([]valEvent, 0, 2*len(set.Values)+2)
	for i, v := range set.Values {
		if a.Offset[i] < 0 || a.Offset[i] >= a.Regs {
			return fmt.Errorf("regalloc: offset %d of value %d out of range", a.Offset[i], i)
		}
		if v.Len < 1 {
			return fmt.Errorf("regalloc: value %d has non-positive length %d", i, v.Len)
		}
		if v.Len > circ {
			return fmt.Errorf("regalloc: value %d of length %d overflows the torus (%d)", i, v.Len, circ)
		}
		start := mod(v.Start+a.Offset[i]*a.II, circ)
		if end := start + v.Len; end <= circ {
			evs = append(evs,
				valEvent{pos: start, delta: 1, idx: int32(i)},
				valEvent{pos: end, delta: -1, idx: int32(i)})
		} else {
			// A wrapping arc splits into two disjoint linear intervals;
			// they never cover the same cycle, so the arc cannot collide
			// with itself in the sweep.
			evs = append(evs,
				valEvent{pos: start, delta: 1, idx: int32(i)},
				valEvent{pos: circ, delta: -1, idx: int32(i)},
				valEvent{pos: 0, delta: 1, idx: int32(i)},
				valEvent{pos: end - circ, delta: -1, idx: int32(i)})
		}
	}
	sort.Slice(evs, func(x, y int) bool {
		if evs[x].pos != evs[y].pos {
			return evs[x].pos < evs[y].pos
		}
		return evs[x].delta < evs[y].delta
	})
	cover, cur := 0, int32(-1)
	for _, e := range evs {
		if e.delta < 0 {
			cover--
			continue
		}
		cover++
		switch {
		case cover == 1:
			cur = e.idx
		case cover >= 2:
			i, j := cur, e.idx
			if i > j {
				i, j = j, i
			}
			return fmt.Errorf("regalloc: values %d and %d overlap on the torus", i, j)
		}
	}
	return nil
}
