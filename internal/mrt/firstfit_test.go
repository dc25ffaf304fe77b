package mrt

// FirstFit is pinned against the scan it replaces: PlaceInto tried at
// each cycle of the window in order, on a copy of the table.

import (
	"math/rand"
	"reflect"
	"testing"
)

// cloneTable returns an independent copy of t.
func cloneTable(t *Table) *Table {
	c := &Table{ii: t.ii, words: t.words}
	for cl := range t.units {
		c.units[cl] = make([]unitRows, len(t.units[cl]))
		for u, ur := range t.units[cl] {
			c.units[cl][u] = unitRows{bits: append([]uint64(nil), ur.bits...), used: ur.used}
		}
	}
	return c
}

// scanFirstFit probes PlaceInto cycle by cycle on a copy of tb. A failed
// PlaceInto reserves nothing, so one copy serves the whole scan.
func scanFirstFit(tb *Table, c Class, from, to, step, occ int) (int, bool) {
	probe := cloneTable(tb)
	var r Reservation
	for t := from; (step > 0 && t <= to) || (step < 0 && t >= to); t += step {
		if probe.PlaceInto(&r, c, t, occ) {
			return t, true
		}
	}
	return 0, false
}

// randomTable fills a table of II rows and the given units per class with
// a seeded mix of single-row, multi-row and multi-unit reservations, at
// any density from empty to full.
func randomTable(ii, units int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	tb := New(ii, units, units)
	for n := rng.Intn(2*ii*units + 1); n > 0; n-- {
		occ := 1
		if rng.Intn(4) == 0 {
			occ += rng.Intn(2 * ii)
		}
		tb.Place(Class(rng.Intn(2)), rng.Intn(4*ii)-2*ii, occ)
	}
	return tb
}

// checkFirstFit compares FirstFit with the scan on the window of n cycles
// starting at from in direction step, and checks FirstFit left the table
// untouched.
func checkFirstFit(t *testing.T, tb *Table, c Class, from, n, step, occ int) {
	t.Helper()
	to := from + step*(n-1)
	before := cloneTable(tb)
	got, gok := tb.FirstFit(c, from, to, step, occ)
	want, wok := scanFirstFit(tb, c, from, to, step, occ)
	if got != want || gok != wok {
		t.Fatalf("II=%d FirstFit(%s, %d, %d, %+d, occ %d) = %d %v, scan %d %v",
			tb.ii, c, from, to, step, occ, got, gok, want, wok)
	}
	if !reflect.DeepEqual(tb, before) {
		t.Fatalf("II=%d FirstFit(%s, %d, %d, %+d, occ %d) modified the table", tb.ii, c, from, to, step, occ)
	}
}

// TestFirstFitMatchesScan sweeps random tables around the word boundaries
// with windows of every kind: empty, short, full-II and longer than II, in
// both directions, with and without wrap-around.
func TestFirstFitMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, ii := range []int{1, 2, 5, 63, 64, 65, 127, 128, 129, 200} {
		for trial := 0; trial < 6; trial++ {
			tb := randomTable(ii, 1+rng.Intn(4), rng.Int63())
			for q := 0; q < 60; q++ {
				step := 1 - 2*rng.Intn(2)
				n := rng.Intn(ii + 2)
				occ := 1
				if rng.Intn(3) == 0 {
					occ = 1 + rng.Intn(2*ii)
				}
				checkFirstFit(t, tb, Class(rng.Intn(2)), rng.Intn(4*ii)-2*ii, n, step, occ)
			}
		}
	}
}

// FuzzFirstFitMatchesScan lets the fuzzer search for a table and window on
// which FirstFit and the PlaceInto scan disagree. ii maps to 1..200 (0 is
// 200), units to 1..4, length to 0..II+1 cycles and occ to 1..2·II.
func FuzzFirstFitMatchesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, ii, units uint8, seed int64, from int16, length uint8, back, fpu bool, occ uint8) {
		i := int(ii) % 200
		if i == 0 {
			i = 200
		}
		tb := randomTable(i, int(units)%4+1, seed)
		step := 1
		if back {
			step = -1
		}
		c := Mem
		if fpu {
			c = FPU
		}
		checkFirstFit(t, tb, c, int(from), int(length)%(i+2), step, int(occ)%(2*i)+1)
	})
}
