// Package mrt implements the modulo reservation table used by the modulo
// scheduler: a resource usage map over one initiation interval (II) that
// repeats every II cycles.
//
// Placing a pipelined operation at cycle t reserves one row (t mod II) on
// one unit of its class. A non-pipelined operation (divide, square root)
// reserves occ consecutive rows. When occ exceeds the II, the reservation
// spans several units: floor(occ/II) fully-reserved units plus the
// remaining rows on one more — this models hardware in which successive
// iterations' long operations round-robin across the replicated units, so
// a loop with one 19-cycle divide per iteration can still sustain II = 10
// on two dividers.
//
// Rows are stored as uint64 bitset words: a fits/reserve/unreserve over a
// window of rows is a handful of word-mask operations instead of per-row
// modulo arithmetic, and FirstFit finds the first free row of a window
// with a bit scan, which is what makes the scheduler's inner placement
// loop cheap.
package mrt

import (
	"fmt"
	"math/bits"
)

// Class selects a resource class of the VLIW machine.
type Class int

const (
	// Mem is the bus class (memory ports).
	Mem Class = iota
	// FPU is the floating-point unit class.
	FPU
)

func (c Class) String() string {
	if c == Mem {
		return "mem"
	}
	return "fpu"
}

// Span is a contiguous block of reserved rows on one unit.
type Span struct {
	Unit  int
	Cycle int // starting cycle; rows are Cycle..Cycle+Occ-1 mod II
	Occ   int
}

// Reservation records everything needed to release or replay a placement.
type Reservation struct {
	Class Class
	Spans []Span
}

// PrimaryUnit returns the unit of the first span (the issue slot of the
// operation); reservations always have at least one span.
func (r Reservation) PrimaryUnit() int { return r.Spans[0].Unit }

// Table is a modulo reservation table for a machine with a number of
// identical units per resource class.
type Table struct {
	ii    int
	words int // uint64 words per unit: ceil(ii/64)
	units [2][]unitRows
}

type unitRows struct {
	bits []uint64 // row r busy iff bits[r/64]>>(r%64)&1; rows >= ii unused
	used int      // busy rows, for cheap utilization queries
}

// New returns an empty table for the given initiation interval and unit
// counts. It panics on non-positive arguments: the scheduler never asks
// for a degenerate table.
func New(ii, buses, fpus int) *Table {
	t := &Table{}
	t.init(ii, buses, fpus)
	return t
}

func (t *Table) init(ii, buses, fpus int) {
	if ii < 1 || buses < 1 || fpus < 1 {
		panic(fmt.Sprintf("mrt: invalid table (ii=%d, buses=%d, fpus=%d)", ii, buses, fpus))
	}
	t.ii = ii
	t.words = (ii + 63) / 64
	counts := [2]int{Mem: buses, FPU: fpus}
	for c := range t.units {
		if cap(t.units[c]) >= counts[c] {
			t.units[c] = t.units[c][:counts[c]]
		} else {
			t.units[c] = make([]unitRows, counts[c])
		}
		for u := range t.units[c] {
			ur := &t.units[c][u]
			if cap(ur.bits) >= t.words {
				ur.bits = ur.bits[:t.words]
				for w := range ur.bits {
					ur.bits[w] = 0
				}
			} else {
				// Twice the need: the II search walks upward one II at a
				// time, so the rows grow geometrically, not per word.
				ur.bits = make([]uint64, t.words, 2*t.words)
			}
			ur.used = 0
		}
	}
}

// Reset clears the table and resizes it for a new initiation interval,
// reusing the row storage. The scheduler's II search calls it once per
// candidate II instead of allocating a fresh table.
func (t *Table) Reset(ii, buses, fpus int) { t.init(ii, buses, fpus) }

// II returns the table's initiation interval.
func (t *Table) II() int { return t.ii }

// Units returns the number of units in a class.
func (t *Table) Units(c Class) int { return len(t.units[c]) }

// wordMask returns the mask with bits [lo, hi) set; 0 <= lo < hi <= 64.
func wordMask(lo, hi int) uint64 {
	return (^uint64(0) << lo) & (^uint64(0) >> (64 - hi))
}

// anyBusy reports whether any row in [from, to) is reserved (no wrap).
func anyBusy(bits []uint64, from, to int) bool {
	fw, lw := from>>6, (to-1)>>6
	if fw == lw {
		return bits[fw]&wordMask(from&63, (to-1)&63+1) != 0
	}
	if bits[fw]&wordMask(from&63, 64) != 0 {
		return true
	}
	for w := fw + 1; w < lw; w++ {
		if bits[w] != 0 {
			return true
		}
	}
	return bits[lw]&wordMask(0, (to-1)&63+1) != 0
}

// setBusy marks rows [from, to) reserved (no wrap).
func setBusy(bits []uint64, from, to int) {
	fw, lw := from>>6, (to-1)>>6
	if fw == lw {
		bits[fw] |= wordMask(from&63, (to-1)&63+1)
		return
	}
	bits[fw] |= wordMask(from&63, 64)
	for w := fw + 1; w < lw; w++ {
		bits[w] = ^uint64(0)
	}
	bits[lw] |= wordMask(0, (to-1)&63+1)
}

// clearBusy frees rows [from, to) (no wrap), panicking when any of them is
// not currently reserved — releasing something never placed is a scheduler
// bug.
func clearBusy(bits []uint64, from, to int) {
	fw, lw := from>>6, (to-1)>>6
	if fw == lw {
		m := wordMask(from&63, (to-1)&63+1)
		if bits[fw]&m != m {
			panic(fmt.Sprintf("mrt: releasing unreserved rows in [%d,%d)", from, to))
		}
		bits[fw] &^= m
		return
	}
	m := wordMask(from&63, 64)
	if bits[fw]&m != m {
		panic(fmt.Sprintf("mrt: releasing unreserved rows in [%d,%d)", from, to))
	}
	bits[fw] &^= m
	for w := fw + 1; w < lw; w++ {
		if bits[w] != ^uint64(0) {
			panic(fmt.Sprintf("mrt: releasing unreserved rows in [%d,%d)", from, to))
		}
		bits[w] = 0
	}
	m = wordMask(0, (to-1)&63+1)
	if bits[lw]&m != m {
		panic(fmt.Sprintf("mrt: releasing unreserved rows in [%d,%d)", from, to))
	}
	bits[lw] &^= m
}

// fits reports whether unit u of class c is free at all occ rows starting
// at cycle mod ii. occ must be in [1, ii].
func (t *Table) fits(c Class, u, cycle, occ int) bool {
	ur := &t.units[c][u]
	start := mod(cycle, t.ii)
	if occ == 1 {
		return ur.bits[start>>6]&(1<<uint(start&63)) == 0
	}
	if occ >= t.ii {
		return ur.used == 0
	}
	if end := start + occ; end <= t.ii {
		return !anyBusy(ur.bits, start, end)
	}
	return !anyBusy(ur.bits, start, t.ii) && !anyBusy(ur.bits, 0, start+occ-t.ii)
}

func (t *Table) reserve(c Class, u, cycle, occ int) {
	ur := &t.units[c][u]
	start := mod(cycle, t.ii)
	if end := start + occ; end <= t.ii {
		setBusy(ur.bits, start, end)
	} else {
		setBusy(ur.bits, start, t.ii)
		setBusy(ur.bits, 0, end-t.ii)
	}
	ur.used += occ
}

func (t *Table) unreserve(c Class, u, cycle, occ int) {
	ur := &t.units[c][u]
	start := mod(cycle, t.ii)
	if end := start + occ; end <= t.ii {
		clearBusy(ur.bits, start, end)
	} else {
		clearBusy(ur.bits, start, t.ii)
		clearBusy(ur.bits, 0, end-t.ii)
	}
	ur.used -= occ
}

// Place reserves occ rows of class c starting at cycle. For occ <= II the
// reservation is a single span on the first unit that fits; for occ > II it
// is floor(occ/II) fully-free units plus the remainder on one more. It
// returns ok=false without reserving anything when the class cannot
// accommodate the reservation.
func (t *Table) Place(c Class, cycle, occ int) (Reservation, bool) {
	var r Reservation
	if !t.PlaceInto(&r, c, cycle, occ) {
		return Reservation{}, false
	}
	return r, true
}

// PlaceInto is Place writing the reservation into *r, reusing r's span
// storage. The scheduler's placement arena calls it so that re-placing an
// evicted operation does not allocate. On failure r is left with an empty
// span list and nothing is reserved.
func (t *Table) PlaceInto(r *Reservation, c Class, cycle, occ int) bool {
	if occ < 1 {
		panic(fmt.Sprintf("mrt: non-positive occupancy %d", occ))
	}
	r.Class = c
	r.Spans = r.Spans[:0]
	if occ <= t.ii {
		for u := range t.units[c] {
			if t.fits(c, u, cycle, occ) {
				t.reserve(c, u, cycle, occ)
				r.Spans = append(r.Spans, Span{Unit: u, Cycle: cycle, Occ: occ})
				return true
			}
		}
		return false
	}

	full := occ / t.ii
	rem := occ % t.ii
	want := full + sign(rem)
	// The remainder span leads (it is the issue slot). Prefer a partially
	// used unit for it so fully-free units stay available for the full
	// spans.
	if rem > 0 {
		remUnit := -1
		for u := range t.units[c] {
			if t.units[c][u].used > 0 && t.fits(c, u, cycle, rem) {
				remUnit = u
				break
			}
		}
		if remUnit == -1 {
			for u := range t.units[c] {
				if t.units[c][u].used == 0 {
					remUnit = u
					break
				}
			}
		}
		if remUnit == -1 {
			r.Spans = r.Spans[:0]
			return false
		}
		r.Spans = append(r.Spans, Span{Unit: remUnit, Cycle: cycle, Occ: rem})
	}
	for u := range t.units[c] {
		if len(r.Spans) == want {
			break
		}
		if t.units[c][u].used != 0 || spansContainUnit(r.Spans, u) {
			continue
		}
		r.Spans = append(r.Spans, Span{Unit: u, Cycle: cycle, Occ: t.ii})
	}
	if len(r.Spans) != want {
		r.Spans = r.Spans[:0]
		return false // nothing reserved yet; no rollback needed
	}
	for _, s := range r.Spans {
		t.reserve(c, s.Unit, s.Cycle, s.Occ)
	}
	return true
}

func spansContainUnit(spans []Span, u int) bool {
	for _, s := range spans {
		if s.Unit == u {
			return true
		}
	}
	return false
}

func sign(x int) int {
	if x > 0 {
		return 1
	}
	return 0
}

// FirstFit returns the first cycle of the scan from, from+step, ..., to
// (step is 1 or -1) at which PlaceInto(c, cycle, occ) would succeed, and
// false when it would succeed nowhere; a window that runs against its step
// is empty. It reserves nothing. Rows repeat every II cycles, so only the
// first II cycles of a longer window are scanned.
//
// For occ == 1 the scan is word-level: a row is free when some unit of the
// class has it free, so the units' busy words are ANDed and the first free
// row is a trailing-zero count forward or a leading-zero count backward,
// in at most two runs around the wrap. Other occupancies probe cycle by
// cycle.
func (t *Table) FirstFit(c Class, from, to, step, occ int) (int, bool) {
	if step != 1 && step != -1 {
		panic(fmt.Sprintf("mrt: FirstFit step %d is not 1 or -1", step))
	}
	n := min((to-from)*step+1, t.ii)
	if n <= 0 {
		return 0, false
	}
	if occ != 1 {
		for i, cycle := 0, from; i < n; i, cycle = i+1, cycle+step {
			if t.RowFree(c, cycle, occ) {
				return cycle, true
			}
		}
		return 0, false
	}
	s := mod(from, t.ii)
	if step > 0 {
		// Rows s, s+1, ..., wrapping from II-1 to 0.
		if r := t.lowestFree(c, s, min(s+n, t.ii)); r >= 0 {
			return from + r - s, true
		}
		if end := s + n - t.ii; end > 0 {
			if r := t.lowestFree(c, 0, end); r >= 0 {
				return from + t.ii - s + r, true
			}
		}
		return 0, false
	}
	// Rows s, s-1, ..., wrapping from 0 to II-1.
	lo := s - n + 1
	if r := t.highestFree(c, max(lo, 0), s+1); r >= 0 {
		return from - (s - r), true
	}
	if lo < 0 {
		if r := t.highestFree(c, lo+t.ii, t.ii); r >= 0 {
			return from - (s + t.ii - r), true
		}
	}
	return 0, false
}

// freeRows returns the rows of word w that some unit of class c has free.
func (t *Table) freeRows(c Class, w int) uint64 {
	busy := ^uint64(0)
	for u := range t.units[c] {
		busy &= t.units[c][u].bits[w]
	}
	return ^busy
}

// lowestFree returns the lowest row in [lo, hi) that some unit of class c
// has free, or -1; 0 <= lo < hi <= II.
func (t *Table) lowestFree(c Class, lo, hi int) int {
	for w := lo >> 6; w<<6 < hi; w++ {
		base := w << 6
		if free := t.freeRows(c, w) & wordMask(max(lo-base, 0), min(hi-base, 64)); free != 0 {
			return base + bits.TrailingZeros64(free)
		}
	}
	return -1
}

// highestFree returns the highest row in [lo, hi) that some unit of class
// c has free, or -1; 0 <= lo < hi <= II.
func (t *Table) highestFree(c Class, lo, hi int) int {
	for w := (hi - 1) >> 6; w >= lo>>6; w-- {
		base := w << 6
		if free := t.freeRows(c, w) & wordMask(max(lo-base, 0), min(hi-base, 64)); free != 0 {
			return base + 63 - bits.LeadingZeros64(free)
		}
	}
	return -1
}

// PlaceExact reserves exactly the spans of a previously computed
// reservation (schedule validators use it to replay a recorded placement).
// It returns false, reserving nothing, if any row is busy or out of range.
func (t *Table) PlaceExact(r Reservation) bool {
	for _, s := range r.Spans {
		if s.Unit < 0 || s.Unit >= len(t.units[r.Class]) || s.Occ < 1 || s.Occ > t.ii {
			return false
		}
	}
	for i, s := range r.Spans {
		if !t.fits(r.Class, s.Unit, s.Cycle, s.Occ) {
			for _, undo := range r.Spans[:i] {
				t.unreserve(r.Class, undo.Unit, undo.Cycle, undo.Occ)
			}
			return false
		}
		t.reserve(r.Class, s.Unit, s.Cycle, s.Occ)
	}
	return true
}

// Release frees a reservation previously made by Place or PlaceExact. It
// panics if the rows are not currently reserved — releasing something never
// placed is a scheduler bug.
func (t *Table) Release(r Reservation) {
	for _, s := range r.Spans {
		t.unreserve(r.Class, s.Unit, s.Cycle, s.Occ)
	}
}

// Used returns the total number of reserved rows in a class (a utilization
// measure: Used / (Units * II) is the class occupancy).
func (t *Table) Used(c Class) int {
	total := 0
	for u := range t.units[c] {
		total += t.units[c][u].used
	}
	return total
}

// UnitUsed returns the number of reserved rows on one unit of a class.
// Fully-free units (UnitUsed == 0) are interchangeable, which branching
// searches exploit to prune symmetric placements.
func (t *Table) UnitUsed(c Class, u int) int { return t.units[c][u].used }

// UnitFree reports whether unit u of class c is free for occ consecutive
// rows starting at cycle mod II. occ must be in [1, II].
func (t *Table) UnitFree(c Class, u, cycle, occ int) bool { return t.fits(c, u, cycle, occ) }

// Utilization returns the fraction of reserved rows in a class.
func (t *Table) Utilization(c Class) float64 {
	return float64(t.Used(c)) / float64(len(t.units[c])*t.ii)
}

// RowFree reports whether a reservation of the given occupancy could start
// at this cycle: exactly when PlaceInto would succeed there.
func (t *Table) RowFree(c Class, cycle, occ int) bool {
	if occ <= t.ii {
		for u := range t.units[c] {
			if t.fits(c, u, cycle, occ) {
				return true
			}
		}
		return false
	}
	// Multi-unit reservations: count fully free units and a remainder
	// slot, as PlaceInto assigns them.
	full := occ / t.ii
	rem := occ % t.ii
	free := 0
	remOK := rem == 0
	for u := range t.units[c] {
		if t.units[c][u].used == 0 {
			free++
		} else if rem > 0 && t.fits(c, u, cycle, rem) {
			remOK = true
		}
	}
	if rem > 0 && free > full {
		remOK = true // a fully free unit can host the remainder
	}
	return free >= full && remOK
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
