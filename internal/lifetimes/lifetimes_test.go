package lifetimes

import (
	"math/rand"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/sched"
)

func schedule(t *testing.T, l *ddg.Loop, cfg string, model machine.CycleModel) *sched.Schedule {
	t.Helper()
	c, err := machine.ParseConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ModuloSchedule(l, machine.New(c, 256, model), nil)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	return s
}

func TestComputeChain(t *testing.T) {
	b := ddg.NewBuilder("chain", 10)
	ld := b.Load(1, "ld")
	ad := b.Op(machine.Add, "add")
	st := b.Store(1, "st")
	b.Flow(ld, ad, 0)
	b.Flow(ad, st, 0)
	l := b.Build()

	s := schedule(t, l, "1w1", machine.FourCycle)
	set := Compute(s)
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two values: the load's and the add's. The store defines none.
	if len(set.Values) != 2 {
		t.Fatalf("values = %d, want 2", len(set.Values))
	}
	// The load's value lives from its issue until the add's issue
	// (>= the 4-cycle latency); the add's until the store's issue.
	for _, v := range set.Values {
		if v.Len < 4 && v.Op == ld {
			t.Errorf("load value length = %d, want >= 4", v.Len)
		}
		if v.Uses != 1 {
			t.Errorf("op %d uses = %d, want 1", v.Op, v.Uses)
		}
	}
	_ = st
}

func TestDeadValueHasUnitLifetime(t *testing.T) {
	b := ddg.NewBuilder("dead", 10)
	b.Op(machine.Mul, "unused")
	l := b.Build()
	s := schedule(t, l, "1w1", machine.FourCycle)
	set := Compute(s)
	if len(set.Values) != 1 || set.Values[0].Len != 1 || set.Values[0].Uses != 0 {
		t.Errorf("dead value = %+v", set.Values)
	}
}

func TestRecurrenceLifetimeSpansIterations(t *testing.T) {
	// Accumulator add self-loop at distance 1: the value must live II
	// cycles (until the next iteration's add issues).
	b := ddg.NewBuilder("accum", 10)
	ld := b.Load(1, "ld")
	ad := b.Op(machine.Add, "acc")
	b.Flow(ld, ad, 0)
	b.Flow(ad, ad, 1)
	l := b.Build()

	s := schedule(t, l, "1w1", machine.FourCycle)
	set := Compute(s)
	var acc *Value
	for i := range set.Values {
		if set.Values[i].Op == ad {
			acc = &set.Values[i]
		}
	}
	if acc == nil {
		t.Fatal("no accumulator value")
	}
	if acc.Len != s.II {
		t.Errorf("accumulator lifetime = %d, want II = %d", acc.Len, s.II)
	}
}

func TestPressureAndMaxLive(t *testing.T) {
	// Hand-built set: II=4, one value covering [0,4) (full kernel), one
	// covering [1,3).
	set := &Set{
		II: 4,
		Values: []Value{
			{Op: 0, Start: 0, Len: 4},
			{Op: 1, Start: 1, Len: 2},
		},
	}
	p := set.Pressure()
	want := []int{1, 2, 2, 1}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("pressure[%d] = %d, want %d (full %v)", i, p[i], want[i], p)
		}
	}
	if set.MaxLive() != 2 {
		t.Errorf("MaxLive = %d, want 2", set.MaxLive())
	}
	if set.TotalLen() != 6 {
		t.Errorf("TotalLen = %d, want 6", set.TotalLen())
	}
}

func TestPressureWrapsLongLifetimes(t *testing.T) {
	// II=3, one value of length 7 = 2 full wraps + 1 extra cycle at its
	// start row.
	set := &Set{II: 3, Values: []Value{{Op: 0, Start: 2, Len: 7}}}
	p := set.Pressure()
	if p[2] != 3 || p[0] != 2 || p[1] != 2 {
		t.Errorf("pressure = %v, want [2 2 3]", p)
	}
	if set.MaxLive() != 3 {
		t.Errorf("MaxLive = %d, want 3", set.MaxLive())
	}
}

func TestValidateRejects(t *testing.T) {
	bad := &Set{II: 0}
	if bad.Validate() == nil {
		t.Error("II=0 must fail")
	}
	bad = &Set{II: 2, Values: []Value{{Op: 0, Start: 0, Len: 0}}}
	if bad.Validate() == nil {
		t.Error("zero-length value must fail")
	}
	bad = &Set{II: 2, Values: []Value{{Op: 0, Start: -1, Len: 1}}}
	if bad.Validate() == nil {
		t.Error("negative start must fail")
	}
}

// TestComputeIntoReusesStorage pins the allocation-free recompute path the
// spill pass drives: ComputeInto must match Compute exactly and reuse the
// destination's value storage across rebinds.
func TestComputeIntoReusesStorage(t *testing.T) {
	b := ddg.NewBuilder("reuse", 10)
	ld := b.Load(1, "")
	m1 := b.Op(machine.Mul, "")
	st := b.Store(1, "")
	b.Flow(ld, m1, 0)
	b.Flow(m1, st, 0)
	l := b.Build()

	s1 := schedule(t, l, "1w1", machine.FourCycle)
	s8 := schedule(t, l, "8w1", machine.FourCycle)

	var dst Set
	for _, s := range []*sched.Schedule{s1, s8, s1} {
		got := ComputeInto(&dst, s)
		if got != &dst {
			t.Fatal("ComputeInto must return its destination")
		}
		want := Compute(s)
		if got.II != want.II || len(got.Values) != len(want.Values) {
			t.Fatalf("ComputeInto = II %d/%d values, want II %d/%d", got.II, len(got.Values), want.II, len(want.Values))
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("value %d = %+v, want %+v", i, got.Values[i], want.Values[i])
			}
		}
	}
	cap1 := cap(dst.Values)
	ComputeInto(&dst, s8)
	if cap(dst.Values) != cap1 {
		t.Errorf("rebind grew storage: cap %d -> %d", cap1, cap(dst.Values))
	}
}

// TestPressureIntoMatchesPressure pins the compute-into variant and its
// buffer reuse against the allocating path.
func TestPressureIntoMatchesPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	buf := []int(nil)
	for trial := 0; trial < 50; trial++ {
		ii := 1 + rng.Intn(70) // crosses the MaxLive stack-buffer boundary
		set := &Set{II: ii}
		for i := 0; i < 1+rng.Intn(10); i++ {
			set.Values = append(set.Values, Value{Op: i, Start: rng.Intn(30), Len: 1 + rng.Intn(40)})
		}
		want := set.Pressure()
		buf = set.PressureInto(buf)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(buf), len(want))
		}
		max := 0
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d: row %d = %d, want %d", trial, i, buf[i], want[i])
			}
			if want[i] > max {
				max = want[i]
			}
		}
		if got := set.MaxLive(); got != max {
			t.Fatalf("trial %d: MaxLive = %d, want %d", trial, got, max)
		}
	}
}

// TestLowerIIRaisesPressure reproduces the paper's Section 3.2 premise
// (from Llosa et al.): reducing the II increases the register
// requirements. More resources -> smaller II -> more overlapped, longer
// relative lifetimes.
func TestLowerIIRaisesPressure(t *testing.T) {
	// A wide independent loop: 8 loads each feeding its own add chain.
	b := ddg.NewBuilder("par", 10)
	for i := 0; i < 8; i++ {
		ld := b.Load(1, "")
		a1 := b.Op(machine.Add, "")
		a2 := b.Op(machine.Mul, "")
		st := b.Store(1, "")
		b.Flow(ld, a1, 0)
		b.Flow(a1, a2, 0)
		b.Flow(a2, st, 0)
	}
	l := b.Build()

	s1 := schedule(t, l, "1w1", machine.FourCycle) // II = 16 (mem bound)
	s8 := schedule(t, l, "8w1", machine.FourCycle) // II = 2
	if s8.II >= s1.II {
		t.Fatalf("II did not drop: %d vs %d", s8.II, s1.II)
	}
	m1 := Compute(s1).MaxLive()
	m8 := Compute(s8).MaxLive()
	if m8 <= m1 {
		t.Errorf("MaxLive must rise when II drops: %d (II=%d) vs %d (II=%d)",
			m1, s1.II, m8, s8.II)
	}
}

// Property: Pressure is consistent with a brute-force recount over
// absolute cycles, and MaxLive is its maximum. The IIs run past MaxLive's
// 64-entry stack buffer, and the lengths include exact multiples of II
// (no partial run) and partial runs that end exactly at row II-1 (the
// prefix sum's no-wrap edge).
func TestPressureBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		ii := 1 + rng.Intn(8)
		if trial%3 == 0 {
			ii = 1 + rng.Intn(80)
		}
		n := 1 + rng.Intn(12)
		set := &Set{II: ii}
		horizon := 0
		for i := 0; i < n; i++ {
			v := Value{Op: i, Start: rng.Intn(20 + ii), Len: 1 + rng.Intn(25+3*ii)}
			switch rng.Intn(4) {
			case 0: // whole kernel turns only
				v.Len = ii * (1 + rng.Intn(4))
			case 1: // the partial run ends at row II-1
				row := v.Start % ii
				v.Len = ii*rng.Intn(3) + ii - row
			}
			set.Values = append(set.Values, v)
			if v.End() > horizon {
				horizon = v.End()
			}
		}
		// Brute force: in steady state every iteration contributes a copy
		// of each lifetime shifted by k*II; count live copies at rows far
		// from the boundary by summing over shifts within a generous
		// window.
		p := set.Pressure()
		max := 0
		for r := 0; r < ii; r++ {
			count := 0
			for _, v := range set.Values {
				// Copies start at v.Start + k*II for all integers k; the
				// copy covers cycle c iff v.Start+k*II <= c < end+k*II.
				// Count k values for cycle c = horizon + r (deep inside
				// steady state when counting all k with live coverage).
				c := horizon + r
				for k := -horizon/ii - 2; k <= horizon/ii+2; k++ {
					s := v.Start + k*ii
					if s <= c && c < s+v.Len {
						count++
					}
				}
			}
			if p[(horizon+r)%ii] != count {
				t.Fatalf("trial %d (II %d, values %+v): pressure[%d] = %d, brute force %d",
					trial, ii, set.Values, (horizon+r)%ii, p[(horizon+r)%ii], count)
			}
			if count > max {
				max = count
			}
		}
		if got := set.MaxLive(); got != max {
			t.Fatalf("trial %d (II %d): MaxLive = %d, max of Pressure %d", trial, ii, got, max)
		}
	}
}
