package regalloc

// This file retains the pre-optimization allocator as a test-only
// reference implementation: placement via a linear scan over every placed
// arc (the arithmetic overlaps predicate), end-fit scoring over all arc
// ends, a fresh sort per attempt, and the O(n²) pairwise Validate. The
// differential tests schedule the workbench with the real scheduler across
// the paper's factor-8 configurations and assert the bitset-torus
// allocator produces bit-identical offsets for both strategies, exactly
// as sched/differential_test.go pins the scheduler overhaul.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lifetimes"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/widen"
)

// --- reference allocator (pre-bitset, arc-scan semantics) ---

func refTryAllocate(set *lifetimes.Set, regs int, strat Strategy) (*Allocation, bool) {
	if a, ok := refTryAllocateOrdered(set, regs, strat, false); ok {
		return a, true
	}
	return refTryAllocateOrdered(set, regs, strat, true)
}

func refTryAllocateOrdered(set *lifetimes.Set, regs int, strat Strategy, longestFirst bool) (*Allocation, bool) {
	if regs < 1 {
		return nil, false
	}
	circ := regs * set.II
	n := len(set.Values)

	for _, v := range set.Values {
		if v.Len > circ {
			return nil, false
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := set.Values[order[a]], set.Values[order[b]]
		if longestFirst {
			if va.Len != vb.Len {
				return va.Len > vb.Len
			}
			if va.Start != vb.Start {
				return va.Start < vb.Start
			}
			return va.Op < vb.Op
		}
		if va.Start != vb.Start {
			return va.Start < vb.Start
		}
		if va.Len != vb.Len {
			return va.Len > vb.Len
		}
		return va.Op < vb.Op
	})

	offsets := make([]int, n)
	var placedArcs []arc

	for _, i := range order {
		v := set.Values[i]
		bestK, bestScore := -1, circ+1
		for k := 0; k < regs; k++ {
			cand := arc{start: Mod(v.Start+k*set.II, circ), len: v.Len}
			conflict := false
			for _, a := range placedArcs {
				if overlaps(cand, a, circ) {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			if strat == FirstFit {
				bestK = k
				break
			}
			score := refGapBefore(cand, placedArcs, circ)
			if score < bestScore {
				bestScore, bestK = score, k
			}
		}
		if bestK < 0 {
			return nil, false
		}
		offsets[i] = bestK
		placedArcs = append(placedArcs, arc{start: Mod(v.Start+bestK*set.II, circ), len: v.Len})
	}
	return &Allocation{Regs: regs, II: set.II, Offset: offsets}, true
}

func refGapBefore(cand arc, placed []arc, circ int) int {
	best := circ
	for _, a := range placed {
		end := Mod(a.start+a.len, circ)
		if d := Mod(cand.start-end, circ); d < best {
			best = d
		}
	}
	return best
}

func refMinRegs(set *lifetimes.Set, strat Strategy) int {
	lower := set.MaxLive()
	if lower == 0 {
		return 0
	}
	n := len(set.Values)
	sumTurns, maxTurns := 0, 0
	for _, v := range set.Values {
		turns := (v.Len + set.II - 1) / set.II
		sumTurns += turns
		if turns > maxTurns {
			maxTurns = turns
		}
	}
	cap := sumTurns + n*(maxTurns+2) + 1
	for r := lower; r <= cap; r++ {
		if _, ok := refTryAllocate(set, r, strat); ok {
			return r
		}
	}
	return cap
}

// refValidate is the pre-sweep pairwise overlap check.
func refValidate(a *Allocation, set *lifetimes.Set) error {
	if len(a.Offset) != len(set.Values) {
		return errMismatch
	}
	if a.Regs == 0 {
		if len(set.Values) != 0 {
			return errMismatch
		}
		return nil
	}
	circ := a.Regs * a.II
	arcs := make([]arc, len(set.Values))
	for i, v := range set.Values {
		if a.Offset[i] < 0 || a.Offset[i] >= a.Regs {
			return errMismatch
		}
		arcs[i] = arc{start: Mod(v.Start+a.Offset[i]*a.II, circ), len: v.Len}
	}
	for i := range arcs {
		for j := i + 1; j < len(arcs); j++ {
			if overlaps(arcs[i], arcs[j], circ) {
				return errMismatch
			}
		}
	}
	return nil
}

type sentinelError string

func (e sentinelError) Error() string { return string(e) }

const errMismatch = sentinelError("reference validation failure")

// --- differential pins ---

func equalOffsets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialRegalloc pins the bitset-torus allocator against the
// retained reference path: identical MinRegs and bit-identical offsets at
// a spread of register sizes around the minimum and at the paper's
// register file sizes, for every workbench loop across all factor-8
// machine widths and both placement strategies. Each loop is also
// rescheduled at two and four times its base II (Options.MinII, as the
// spill pass's II growth does): long lifetimes on a sparse torus, where
// the end-fit scan jumps furthest.
func TestDifferentialRegalloc(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 150
	if testing.Short() {
		p.Loops = 40
	}
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}

	var ls lifetimes.Set
	search := NewSearch(&ls)
	for _, cfg := range machine.ConfigsWithFactor(8) {
		m := machine.New(cfg, 256, machine.FourCycle)
		for _, src := range loops {
			l, _ := widen.Transform(src, cfg.Width)
			base, err := sched.ModuloSchedule(l, m, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", src.Name, cfg, err)
			}
			for _, minII := range []int{0, 2 * base.II, 4 * base.II} {
				s := base
				if minII > 0 {
					if s, err = sched.ModuloSchedule(l, m, &sched.Options{MinII: minII}); err != nil {
						t.Fatalf("%s %s MinII %d: %v", src.Name, cfg, minII, err)
					}
				}
				lifetimes.ComputeInto(&ls, s)
				search.Reset(&ls)
				where := fmt.Sprintf("%s %s II=%d", src.Name, cfg, s.II)
				for _, strat := range []Strategy{EndFit, FirstFit} {
					want := refMinRegs(&ls, strat)
					if got := search.MinRegs(strat); got != want {
						t.Fatalf("%s %v: MinRegs = %d, reference %d", where, strat, got, want)
					}
					for _, regs := range []int{want - 1, want, want + 1, 32, 64, 128, 256} {
						refA, refOK := refTryAllocate(&ls, regs, strat)
						a, ok := search.TryAllocate(regs, strat)
						if ok != refOK {
							t.Fatalf("%s %v regs=%d: ok = %v, reference %v", where, strat, regs, ok, refOK)
						}
						if !ok {
							continue
						}
						if !equalOffsets(a.Offset, refA.Offset) {
							t.Fatalf("%s %v regs=%d: offsets %v, reference %v",
								where, strat, regs, a.Offset, refA.Offset)
						}
						if err := a.Validate(&ls); err != nil {
							t.Fatalf("%s %v regs=%d: %v", where, strat, regs, err)
						}
					}
				}
			}
		}
	}
}

// TestDifferentialValidate pins the endpoint-sweep Validate against the
// pairwise reference on random allocations, both valid (from the
// allocator) and corrupted (random offsets).
func TestDifferentialValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		ii := 1 + rng.Intn(9)
		n := 1 + rng.Intn(16)
		regs := 1 + rng.Intn(12)
		circ := regs * ii
		set := &lifetimes.Set{II: ii}
		for i := 0; i < n; i++ {
			set.Values = append(set.Values, lifetimes.Value{
				Op:    i,
				Start: rng.Intn(4 * ii),
				Len:   1 + rng.Intn(circ),
			})
		}
		a := &Allocation{Regs: regs, II: ii, Offset: make([]int, n)}
		if trial%2 == 0 {
			// Random (usually colliding) offsets.
			for i := range a.Offset {
				a.Offset[i] = rng.Intn(regs)
			}
		} else {
			// A genuine allocation when one exists at this size.
			got, ok := TryAllocate(set, regs, EndFit)
			if !ok {
				continue
			}
			a = got
		}
		gotErr := a.Validate(set)
		wantErr := refValidate(a, set)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d (ii=%d regs=%d values=%+v offsets=%v): Validate = %v, reference %v",
				trial, ii, regs, set.Values, a.Offset, gotErr, wantErr)
		}
	}
}

// TestEndFitNearMaxLiveOnWorkbench asserts the Rau et al. contract on the
// calibrated workbench itself: end-fit allocation stays within about one
// register of the MaxLive lower bound on average, and never drifts far on
// any single loop.
func TestEndFitNearMaxLiveOnWorkbench(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 60
	if testing.Short() {
		p.Loops = 30
	}
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Buses: 2, Width: 1}, 256, machine.FourCycle)
	totalExcess, trials := 0, 0
	var ls lifetimes.Set
	search := NewSearch(&ls)
	for _, l := range loops {
		s, err := sched.ModuloSchedule(l, m, nil)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		lifetimes.ComputeInto(&ls, s)
		search.Reset(&ls)
		r := search.MinRegs(EndFit)
		lower := search.MaxLive()
		if r < lower {
			t.Fatalf("%s: MinRegs %d below MaxLive %d", l.Name, r, lower)
		}
		if r > lower+max(3, lower/4) {
			t.Errorf("%s: MinRegs %d drifts %d above MaxLive %d", l.Name, r, r-lower, lower)
		}
		totalExcess += r - lower
		trials++
	}
	if avg := float64(totalExcess) / float64(trials); avg > 1.0 {
		t.Errorf("end-fit on the workbench averages %.2f registers over MaxLive, want <= 1", avg)
	}
}

// FuzzTorusMatchesOverlaps lets the fuzzer search for arc sequences on
// which the bitset occupancy map diverges from the arithmetic overlaps
// predicate — conflict verdicts (freeAhead, the forward scan the candidate
// jump reads) and end-fit gap scores (freeBehind) both (mirroring mrt's
// FuzzBitsetMatchesBoolSlice).
func FuzzTorusMatchesOverlaps(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{0, 4, 4, 4, 2, 6})
	f.Add(uint8(7), uint8(1), []byte{0, 7, 1, 1})
	f.Add(uint8(64), uint8(2), []byte{63, 2, 0, 64, 120, 9})
	f.Add(uint8(13), uint8(5), []byte{60, 13, 7, 1, 0, 65})
	// II 4, 3 registers: the occupied cycle behind start 0 is found by
	// wrapping to cycle 7, and the one ahead of start 9 by wrapping to 0.
	f.Add(uint8(3), uint8(2), []byte{5, 2, 0, 1, 9, 1})
	f.Fuzz(func(t *testing.T, ii8, regs8 uint8, data []byte) {
		ii := int(ii8)%37 + 1
		regs := int(regs8)%9 + 1
		circ := regs * ii
		occ := torus{circ: circ, words: make([]uint64, (circ+63)/64)}
		var placed []arc
		for i := 0; i+1 < len(data); i += 2 {
			start := int(data[i]) % circ
			length := int(data[i+1])%circ + 1
			cand := arc{start: start, len: length}

			conflicts := func(length int) bool {
				for _, a := range placed {
					if overlaps(arc{start: start, len: length}, a, circ) {
						return true
					}
				}
				return false
			}
			refConflict := conflicts(length)
			ahead := occ.freeAhead(start)
			if got := ahead < length; got != refConflict {
				t.Fatalf("step %d: freeAhead(%d) = %d against length %d, overlaps reference conflict %v (circ %d, placed %v)",
					i, start, ahead, length, refConflict, circ, placed)
			}
			// The jump reads the distance itself, not just the verdict: an
			// arc of exactly freeAhead cycles fits and one cycle more
			// collides.
			if (ahead > 0 && conflicts(ahead)) || (ahead < circ && !conflicts(ahead+1)) {
				t.Fatalf("step %d: freeAhead(%d) = %d is not the free run ahead (circ %d, placed %v)",
					i, start, ahead, circ, placed)
			}
			// The end-fit score is only defined (and only queried) at free
			// candidate starts.
			if ahead > 0 {
				if got, want := occ.freeBehind(start), refGapBefore(cand, placed, circ); got != want {
					t.Fatalf("step %d: freeBehind(%d) = %d, reference %d (circ %d, placed %v)",
						i, start, got, want, circ, placed)
				}
			}
			if !refConflict {
				occ.set(start, length)
				placed = append(placed, cand)
			}
		}
	})
}

// FuzzPlaceMatchesReference lets the fuzzer search for lifetime sets on
// which the jumping candidate scan picks a different offset than the
// reference allocator's test of every candidate against every placed arc.
// An input is an II in [1, 80], a register count in [1, 300] (each taken
// as is when already in range) and 1 to 40 values, each two little-endian
// uint16s: a start in [0, 500] and a length minus one, giving a length in
// [1, 6*II]. Both strategies must match the reference's verdict and
// offsets at that size, and MinRegs must match refMinRegs.
//
// The committed corpus (testdata/fuzz/FuzzPlaceMatchesReference) puts
// circ = regs*II at 63, 64, 65 and 128, around the bitset's word
// boundaries; places a first arc that starts at 18 on a torus of 20 and
// wraps past cycle 19; and places length-1 arcs at II 1, where the
// candidate just past an occupied cycle is free and scores 0, so a jump
// one candidate too far changes the offset.
func FuzzPlaceMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, ii8 uint8, regs16 uint16, data []byte) {
		ii := int(ii8-1)%80 + 1
		regs := int(regs16-1)%300 + 1
		set := &lifetimes.Set{II: ii}
		for i := 0; i+3 < len(data) && len(set.Values) < 40; i += 4 {
			set.Values = append(set.Values, lifetimes.Value{
				Op:    len(set.Values),
				Start: int(binary.LittleEndian.Uint16(data[i:])) % 501,
				Len:   int(binary.LittleEndian.Uint16(data[i+2:]))%(6*ii) + 1,
			})
		}
		if len(set.Values) == 0 {
			return
		}
		search := NewSearch(set)
		for _, strat := range []Strategy{EndFit, FirstFit} {
			refA, refOK := refTryAllocate(set, regs, strat)
			a, ok := search.TryAllocate(regs, strat)
			if ok != refOK {
				t.Fatalf("%v II=%d regs=%d values %+v: ok = %v, reference %v",
					strat, ii, regs, set.Values, ok, refOK)
			}
			if ok && !equalOffsets(a.Offset, refA.Offset) {
				t.Fatalf("%v II=%d regs=%d values %+v: offsets %v, reference %v",
					strat, ii, regs, set.Values, a.Offset, refA.Offset)
			}
			if got, want := search.MinRegs(strat), refMinRegs(set, strat); got != want {
				t.Fatalf("%v II=%d values %+v: MinRegs = %d, reference %d",
					strat, ii, set.Values, got, want)
			}
		}
	})
}
