package mrt

// Property and fuzz tests pinning the bitset reservation table against a
// bool-slice reference implementing the original per-row semantics:
// identical Place/PlaceExact/Release/RowFree/Used behaviour over random
// operation sequences.

import (
	"math/rand"
	"reflect"
	"testing"
)

// boolTable is the pre-bitset reference: one bool per row per unit.
type boolTable struct {
	ii    int
	busy  [2][][]bool
	used  [2][]int
	units [2]int
}

func newBoolTable(ii, buses, fpus int) *boolTable {
	t := &boolTable{ii: ii, units: [2]int{int(Mem): buses, int(FPU): fpus}}
	for c := range t.busy {
		t.busy[c] = make([][]bool, t.units[c])
		t.used[c] = make([]int, t.units[c])
		for u := range t.busy[c] {
			t.busy[c][u] = make([]bool, ii)
		}
	}
	return t
}

func (t *boolTable) fits(c Class, u, cycle, occ int) bool {
	start := Row(cycle, t.ii)
	for i := 0; i < occ; i++ {
		if t.busy[c][u][(start+i)%t.ii] {
			return false
		}
	}
	return true
}

func (t *boolTable) reserve(c Class, u, cycle, occ int) {
	start := Row(cycle, t.ii)
	for i := 0; i < occ; i++ {
		t.busy[c][u][(start+i)%t.ii] = true
	}
	t.used[c][u] += occ
}

func (t *boolTable) unreserve(c Class, u, cycle, occ int) {
	start := Row(cycle, t.ii)
	for i := 0; i < occ; i++ {
		t.busy[c][u][(start+i)%t.ii] = false
	}
	t.used[c][u] -= occ
}

func (t *boolTable) place(c Class, cycle, occ int) (Reservation, bool) {
	res := Reservation{Class: c}
	if occ <= t.ii {
		for u := 0; u < t.units[c]; u++ {
			if t.fits(c, u, cycle, occ) {
				t.reserve(c, u, cycle, occ)
				res.Spans = []Span{{Unit: u, Cycle: cycle, Occ: occ}}
				return res, true
			}
		}
		return Reservation{}, false
	}
	full := occ / t.ii
	rem := occ % t.ii
	want := full
	if rem > 0 {
		want++
	}
	var spans []Span
	taken := map[int]bool{}
	if rem > 0 {
		remUnit := -1
		for u := 0; u < t.units[c]; u++ {
			if t.used[c][u] > 0 && t.fits(c, u, cycle, rem) {
				remUnit = u
				break
			}
		}
		if remUnit == -1 {
			for u := 0; u < t.units[c]; u++ {
				if t.used[c][u] == 0 {
					remUnit = u
					break
				}
			}
		}
		if remUnit == -1 {
			return Reservation{}, false
		}
		spans = append(spans, Span{Unit: remUnit, Cycle: cycle, Occ: rem})
		taken[remUnit] = true
	}
	for u := 0; u < t.units[c] && len(spans) < want; u++ {
		if taken[u] || t.used[c][u] != 0 {
			continue
		}
		spans = append(spans, Span{Unit: u, Cycle: cycle, Occ: t.ii})
		taken[u] = true
	}
	if len(spans) != want {
		return Reservation{}, false
	}
	for _, s := range spans {
		t.reserve(c, s.Unit, s.Cycle, s.Occ)
	}
	res.Spans = spans
	return res, true
}

func (t *boolTable) release(r Reservation) {
	for _, s := range r.Spans {
		t.unreserve(r.Class, s.Unit, s.Cycle, s.Occ)
	}
}

func (t *boolTable) rowFree(c Class, cycle, occ int) bool {
	if occ <= t.ii {
		for u := 0; u < t.units[c]; u++ {
			if t.fits(c, u, cycle, occ) {
				return true
			}
		}
		return false
	}
	full := occ / t.ii
	rem := occ % t.ii
	free := 0
	remOK := rem == 0
	for u := 0; u < t.units[c]; u++ {
		if t.used[c][u] == 0 {
			free++
		} else if rem > 0 && t.fits(c, u, cycle, rem) {
			remOK = true
		}
	}
	if rem > 0 && free > full {
		remOK = true
	}
	return free >= full && remOK
}

func (t *boolTable) totalUsed(c Class) int {
	total := 0
	for u := 0; u < t.units[c]; u++ {
		total += t.used[c][u]
	}
	return total
}

// checkState compares every observable of the two tables: per-class used
// counts and fits at every (unit, row, occ=1) probe.
func checkState(t *testing.T, bits *Table, ref *boolTable, step int) {
	t.Helper()
	for _, c := range []Class{Mem, FPU} {
		if got, want := bits.Used(c), ref.totalUsed(c); got != want {
			t.Fatalf("step %d: Used(%s) = %d, reference %d", step, c, got, want)
		}
		for u := 0; u < ref.units[c]; u++ {
			for row := 0; row < ref.ii; row++ {
				if got, want := bits.fits(c, u, row, 1), ref.fits(c, u, row, 1); got != want {
					t.Fatalf("step %d: fits(%s, unit %d, row %d) = %v, reference %v",
						step, c, u, row, got, want)
				}
			}
		}
	}
}

// applyOps drives the two implementations through one operation sequence,
// failing on the first divergence. Returns normally on exhausted input.
func applyOps(t *testing.T, ii, buses, fpus int, ops []byte) {
	t.Helper()
	bits := New(ii, buses, fpus)
	ref := newBoolTable(ii, buses, fpus)
	var live []Reservation // identical in both by construction

	for i := 0; i+3 < len(ops); i += 4 {
		kind, b1, b2, b3 := ops[i], ops[i+1], ops[i+2], ops[i+3]
		class := Class(int(b1) % 2)
		cycle := int(b2) - 128 // negative cycles must behave too
		switch kind % 4 {
		case 0: // Place with occ in [1, ii]
			occ := int(b3)%ii + 1
			got, gok := bits.Place(class, cycle, occ)
			want, wok := ref.place(class, cycle, occ)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Place(%s, %d, %d) = %+v %v, reference %+v %v",
					i, class, cycle, occ, got, gok, want, wok)
			}
			if gok {
				live = append(live, got)
			}
		case 1: // Place with occ possibly spanning units (> ii)
			occ := int(b3)%(3*ii) + 1
			got, gok := bits.Place(class, cycle, occ)
			want, wok := ref.place(class, cycle, occ)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Place(%s, %d, %d) = %+v %v, reference %+v %v",
					i, class, cycle, occ, got, gok, want, wok)
			}
			if gok {
				live = append(live, got)
			}
		case 2: // Release a live reservation
			if len(live) == 0 {
				continue
			}
			j := int(b3) % len(live)
			r := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			bits.Release(r)
			ref.release(r)
		case 3: // RowFree probe
			occ := int(b3)%(2*ii) + 1
			if got, want := bits.RowFree(class, cycle, occ), ref.rowFree(class, cycle, occ); got != want {
				t.Fatalf("step %d: RowFree(%s, %d, %d) = %v, reference %v",
					i, class, cycle, occ, got, want)
			}
		}
		checkState(t, bits, ref, i)
	}

	// Drain: releasing everything must return both tables to empty.
	for _, r := range live {
		bits.Release(r)
		ref.release(r)
	}
	for _, c := range []Class{Mem, FPU} {
		if bits.Used(c) != 0 || ref.totalUsed(c) != 0 {
			t.Fatalf("non-empty after draining: bitset %d, reference %d",
				bits.Used(c), ref.totalUsed(c))
		}
	}
}

// TestBitsetMatchesBoolSlice drives random operation sequences over a
// spread of IIs (including > 64, crossing word boundaries) and unit
// counts.
func TestBitsetMatchesBoolSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	iis := []int{1, 2, 3, 7, 19, 31, 63, 64, 65, 100, 127, 128, 130}
	for _, ii := range iis {
		for trial := 0; trial < 8; trial++ {
			buses := rng.Intn(3) + 1
			fpus := rng.Intn(6) + 1
			ops := make([]byte, 160)
			rng.Read(ops)
			applyOps(t, ii, buses, fpus, ops)
		}
	}
}

// TestBitsetPlaceExact pins PlaceExact replay (the validator path) on
// both implementations: a recorded reservation replays on an empty table
// and conflicts on an occupied one.
func TestBitsetPlaceExact(t *testing.T) {
	for _, ii := range []int{5, 64, 70} {
		src := New(ii, 2, 3)
		r1, ok := src.Place(FPU, 3, ii) // full unit
		if !ok {
			t.Fatal("place failed")
		}
		r2, ok := src.Place(FPU, 3, 2)
		if !ok {
			t.Fatal("place failed")
		}

		replay := New(ii, 2, 3)
		if !replay.PlaceExact(r1) || !replay.PlaceExact(r2) {
			t.Fatalf("ii=%d: replay of valid reservations failed", ii)
		}
		if replay.PlaceExact(r2) {
			t.Fatalf("ii=%d: conflicting replay succeeded", ii)
		}
		if got, want := replay.Used(FPU), ii+2; got != want {
			t.Fatalf("ii=%d: Used = %d, want %d", ii, got, want)
		}
	}
}

// FuzzBitsetMatchesBoolSlice lets the fuzzer search for operation
// sequences on which the bitset and bool-slice tables diverge.
func FuzzBitsetMatchesBoolSlice(f *testing.F) {
	f.Add(uint8(7), uint8(2), uint8(2), []byte{0, 0, 10, 3, 2, 1, 200, 0})
	f.Add(uint8(64), uint8(1), uint8(4), []byte{1, 1, 0, 255, 3, 0, 128, 70})
	f.Add(uint8(65), uint8(3), uint8(1), []byte{0, 1, 64, 64, 0, 0, 65, 0, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, ii, buses, fpus uint8, ops []byte) {
		i := int(ii)%130 + 1
		b := int(buses)%4 + 1
		fp := int(fpus)%6 + 1
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		applyOps(t, i, b, fp, ops)
	})
}
