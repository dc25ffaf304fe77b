package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/widen"
)

func chainLoop() *ddg.Loop {
	b := ddg.NewBuilder("chain", 100)
	ld := b.Load(1, "ld")
	ad := b.Op(machine.Add, "add")
	st := b.Store(1, "st")
	b.Flow(ld, ad, 0)
	b.Flow(ad, st, 0)
	return b.Build()
}

func accumLoop() *ddg.Loop {
	b := ddg.NewBuilder("accum", 100)
	ld := b.Load(1, "ld")
	ad := b.Op(machine.Add, "acc")
	st := b.Store(1, "st")
	b.Flow(ld, ad, 0)
	b.Flow(ad, ad, 1)
	b.Flow(ad, st, 0)
	return b.Build()
}

func mach(cfg string, regs int) machine.Machine {
	c, err := machine.ParseConfig(cfg)
	if err != nil {
		panic(err)
	}
	return machine.New(c, regs, machine.FourCycle)
}

func mustSchedule(t *testing.T, l *ddg.Loop, m machine.Machine) *Schedule {
	t.Helper()
	s, err := ModuloSchedule(l, m, nil)
	if err != nil {
		t.Fatalf("ModuloSchedule(%s, %s): %v", l.Name, m, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v\n%s", err, s.Format())
	}
	return s
}

func TestScheduleChainAtMII(t *testing.T) {
	l := chainLoop()
	m := mach("1w1", 256)
	s := mustSchedule(t, l, m)
	// 2 mem ops on 1 bus: MII = 2; the chain has no recurrence.
	if s.II != 2 {
		t.Errorf("chain II = %d, want 2", s.II)
	}
	// Dependences spread the chain over stages.
	if s.Stages() < 2 {
		t.Errorf("chain must pipeline over >= 2 stages, got %d", s.Stages())
	}
}

func TestScheduleAccumAtRecMII(t *testing.T) {
	l := accumLoop()
	m := mach("1w1", 256)
	s := mustSchedule(t, l, m)
	if s.II != 4 { // RecMII of the latency-4 accumulator
		t.Errorf("accum II = %d, want 4", s.II)
	}
}

func TestScheduleDivLoop(t *testing.T) {
	b := ddg.NewBuilder("div", 10)
	ld := b.Load(1, "ld")
	dv := b.Op(machine.Div, "div")
	st := b.Store(1, "st")
	b.Flow(ld, dv, 0)
	b.Flow(dv, st, 0)
	l := b.Build()
	s := mustSchedule(t, l, mach("1w1", 256))
	// The non-pipelined divide occupies 19 FPU rows; with 2 FPUs the
	// slot bound is ceil(19/2) = 10 and the multi-unit reservation
	// (divides round-robining across the two units) achieves it.
	if s.II != 10 {
		t.Errorf("div loop II = %d, want 10", s.II)
	}
	// The divide's reservation covers its full 19-row occupancy, split
	// across the two FPUs.
	fpuRows := 0
	for v, op := range l.Ops {
		if !op.Kind.IsMem() {
			for _, sp := range s.Res[v].Spans {
				fpuRows += sp.Occ
			}
		}
	}
	if fpuRows != 19 {
		t.Errorf("fpu rows = %d, want 19", fpuRows)
	}
}

func TestScheduleRespectsBusCount(t *testing.T) {
	// 8 independent loads: 1 bus -> II=8; 4 buses -> II=2; 8 buses -> II=1.
	b := ddg.NewBuilder("loads", 10)
	for i := 0; i < 8; i++ {
		b.Load(1, "")
	}
	l := b.Build()
	for _, c := range []struct {
		cfg  string
		want int
	}{{"1w1", 8}, {"4w1", 2}, {"8w1", 1}} {
		s := mustSchedule(t, l, mach(c.cfg, 256))
		if s.II != c.want {
			t.Errorf("%s II = %d, want %d", c.cfg, s.II, c.want)
		}
	}
}

func TestScheduleWideLoop(t *testing.T) {
	// The widened chain: II per unrolled iteration stays 2 on 1w4 while
	// covering 4 original iterations.
	l := chainLoop()
	wide, _ := widen.Transform(l, 4)
	m := machine.New(machine.Config{Buses: 1, Width: 4}, 256, machine.FourCycle)
	s := mustSchedule(t, wide, m)
	if s.II != 2 {
		t.Errorf("wide chain II = %d, want 2 (2 wide mem ops on 1 bus)", s.II)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	l := accumLoop()
	m := mach("2w1", 128)
	s1 := mustSchedule(t, l, m)
	s2 := mustSchedule(t, l, m)
	if s1.II != s2.II {
		t.Fatalf("II differs: %d vs %d", s1.II, s2.II)
	}
	for v := range s1.Time {
		if s1.Time[v] != s2.Time[v] || s1.Res[v].PrimaryUnit() != s2.Res[v].PrimaryUnit() {
			t.Fatalf("schedule differs at op %d", v)
		}
	}
}

func TestScheduleRejectsInvalidInput(t *testing.T) {
	l := chainLoop()
	bad := mach("1w1", 256)
	bad.RF.Width = 3
	if _, err := ModuloSchedule(l, bad, nil); err == nil {
		t.Error("invalid machine must be rejected")
	}
	badLoop := l.Clone()
	badLoop.Trips = 0
	if _, err := ModuloSchedule(badLoop, mach("1w1", 256), nil); err == nil {
		t.Error("invalid loop must be rejected")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	l := chainLoop()
	s := mustSchedule(t, l, mach("1w1", 256))

	c := *s
	c.Time = append([]int(nil), s.Time...)
	c.Time[1] = 0 // add before its load completes
	if err := c.Validate(); err == nil {
		t.Error("dependence violation must be caught")
	}

	c = *s
	c.Time = append([]int(nil), s.Time...)
	c.Time[0] = -1
	if err := c.Validate(); err == nil {
		t.Error("negative time must be caught")
	}

	c = *s
	c.Res = append([]mrt.Reservation(nil), s.Res...)
	c.Res[0] = mrt.Reservation{Class: mrt.Mem, Spans: []mrt.Span{{Unit: 5, Cycle: s.Time[0], Occ: 1}}}
	if err := c.Validate(); err == nil {
		t.Error("unit out of range must be caught")
	}

	c = *s
	c.Res = append([]mrt.Reservation(nil), s.Res...)
	c.Res[1] = mrt.Reservation{Class: mrt.Mem, Spans: s.Res[1].Spans} // add is FPU
	if err := c.Validate(); err == nil {
		t.Error("class mismatch must be caught")
	}

	c = *s
	c.II = 0
	if err := c.Validate(); err == nil {
		t.Error("invalid II must be caught")
	}

	// Two mem ops forced onto the same unit row.
	c = *s
	c.Time = append([]int(nil), s.Time...)
	c.Res = append([]mrt.Reservation(nil), s.Res...)
	c.Time[2] = s.Time[0] + 2*c.II // same row as op 0 (II=2: rows repeat)
	c.Res[2] = mrt.Reservation{Class: mrt.Mem, Spans: []mrt.Span{{
		Unit:  s.Res[0].PrimaryUnit(),
		Cycle: c.Time[2],
		Occ:   1,
	}}}
	if err := c.Validate(); err == nil {
		t.Error("resource overlap must be caught")
	}
}

func TestFormat(t *testing.T) {
	s := mustSchedule(t, accumLoop(), mach("1w1", 256))
	out := s.Format()
	if !strings.Contains(out, "II=4") {
		t.Errorf("Format missing II: %s", out)
	}
	if !strings.Contains(out, "acc") {
		t.Errorf("Format missing op name: %s", out)
	}
}

func randomLoop(rng *rand.Rand, nOps int) *ddg.Loop {
	b := ddg.NewBuilder("rand", int64(rng.Intn(1000)+1))
	type opInfo struct {
		id     int
		result bool
	}
	var ops []opInfo
	for i := 0; i < nOps; i++ {
		switch rng.Intn(8) {
		case 0, 1:
			ops = append(ops, opInfo{b.Load(1+rng.Intn(2), ""), true})
		case 2:
			ops = append(ops, opInfo{b.Store(1, ""), false})
		case 3, 4, 5:
			ops = append(ops, opInfo{b.Op(machine.Add, ""), true})
		case 6:
			ops = append(ops, opInfo{b.Op(machine.Mul, ""), true})
		default:
			if rng.Float64() < 0.3 {
				ops = append(ops, opInfo{b.Op(machine.Div, ""), true})
			} else {
				ops = append(ops, opInfo{b.Op(machine.Sqrt, ""), true})
			}
		}
	}
	for i := range ops {
		for j := i + 1; j < len(ops); j++ {
			if rng.Float64() < 0.18 && ops[i].result {
				b.Flow(ops[i].id, ops[j].id, 0)
			}
		}
		for j := 0; j <= i; j++ {
			if rng.Float64() < 0.04 && ops[i].result {
				b.Flow(ops[i].id, ops[j].id, 1+rng.Intn(4))
			}
		}
	}
	return b.Build()
}

// Property: random loops schedule successfully on random machines, the
// schedule validates, and II >= MII.
func TestScheduleRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var configs []machine.Config
	for _, s := range []string{"1w1", "2w1", "1w2", "4w1", "2w2", "8w1", "4w2"} {
		c, err := machine.ParseConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, c)
	}
	for trial := 0; trial < 120; trial++ {
		l := randomLoop(rng, 3+rng.Intn(25))
		cfg := configs[rng.Intn(len(configs))]
		m := machine.New(cfg, 256, machine.CycleModels()[rng.Intn(4)])
		s, err := ModuloSchedule(l, m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, l.DOT())
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		buses, fpus := m.Slots()
		if mii := l.MII(m.Model, buses, fpus); s.II < mii {
			t.Fatalf("trial %d: II %d below MII %d", trial, s.II, mii)
		}
	}
}

// Property: the scheduler achieves II == MII on the vast majority of loops
// (the HRMS claim of near-optimal schedules). The adversarial random suite
// (12.5% non-pipelined operations — far denser than numerical code) gets a
// looser bound: those loops are hard unit-packing instances; the miss
// distance stays small.
func TestScheduleNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	total, atMII, nearMII := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		l := randomLoop(rng, 3+rng.Intn(20))
		m := machine.New(machine.Config{Buses: 2, Width: 1}, 256, machine.FourCycle)
		s, err := ModuloSchedule(l, m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total++
		mii := l.MII(m.Model, 2, 4)
		if s.II == mii {
			atMII++
		}
		if s.II <= mii+2 {
			nearMII++
		}
	}
	if frac := float64(atMII) / float64(total); frac < 0.8 {
		t.Errorf("II == MII on only %.0f%% of adversarial loops, want >= 80%%", 100*frac)
	}
	// A small tail of hard multi-unit packings (several 27-row square
	// roots at a tight II) misses by more; the bulk stays within 2.
	if frac := float64(nearMII) / float64(total); frac < 0.85 {
		t.Errorf("II <= MII+2 on only %.0f%% of adversarial loops, want >= 85%%", 100*frac)
	}
}

// TestScheduleNearOptimalRealisticMix pins the tight HRMS contract on a
// realistic numerical-code operation mix (rare divides).
func TestScheduleNearOptimalRealisticMix(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	total, atMII := 0, 0
	for trial := 0; trial < 150; trial++ {
		b := ddg.NewBuilder("real", 100)
		var results []int
		nOps := 4 + rng.Intn(20)
		for i := 0; i < nOps; i++ {
			switch r := rng.Intn(20); {
			case r < 6:
				results = append(results, b.Load(1, ""))
			case r < 9:
				st := b.Store(1, "")
				if len(results) > 0 {
					b.Flow(results[rng.Intn(len(results))], st, 0)
				}
			case r < 19:
				kind := machine.Add
				if rng.Float64() < 0.4 {
					kind = machine.Mul
				}
				op := b.Op(kind, "")
				if len(results) > 0 {
					b.Flow(results[rng.Intn(len(results))], op, 0)
				}
				if rng.Float64() < 0.08 {
					b.Flow(op, op, 1)
				}
				results = append(results, op)
			default:
				op := b.Op(machine.Div, "")
				if len(results) > 0 {
					b.Flow(results[rng.Intn(len(results))], op, 0)
				}
				results = append(results, op)
			}
		}
		l := b.Build()
		m := machine.New(machine.Config{Buses: 2, Width: 1}, 256, machine.FourCycle)
		s, err := ModuloSchedule(l, m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		total++
		if s.II == l.MII(m.Model, 2, 4) {
			atMII++
		}
	}
	if frac := float64(atMII) / float64(total); frac < 0.9 {
		t.Errorf("II == MII on only %.0f%% of realistic loops, want >= 90%%", 100*frac)
	}
}

// Property: the HRMS ordering returns a permutation of the ops.
func TestOrderingsArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		l := randomLoop(rng, 2+rng.Intn(30))
		order := l.Analysis().HRMSOrder(machine.FourCycle)
		if len(order) != l.NumOps() {
			t.Fatalf("%d of %d ops", len(order), l.NumOps())
		}
		seen := make(map[int]bool, len(order))
		for _, v := range order {
			if v < 0 || v >= l.NumOps() || seen[v] {
				t.Fatalf("bad permutation %v", order)
			}
			seen[v] = true
		}
	}
}

// TestHRMSOrderSeedsRecurrenceFirst: the most critical recurrence must head
// the order.
func TestHRMSOrderSeedsRecurrenceFirst(t *testing.T) {
	b := ddg.NewBuilder("seed", 10)
	free := b.Load(1, "free")
	_ = free
	a := b.Op(machine.Mul, "m1")
	c := b.Op(machine.Mul, "m2")
	b.Flow(a, c, 0)
	b.Flow(c, a, 1) // RecMII 8 recurrence
	l := b.Build()
	order := l.Analysis().HRMSOrder(machine.FourCycle)
	if order[0] != a && order[0] != c {
		t.Errorf("order %v must start with the recurrence, not op %d", order, order[0])
	}
	// The two recurrence nodes must be adjacent in the order.
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	if d := pos[a] - pos[c]; d != 1 && d != -1 {
		t.Errorf("recurrence nodes not adjacent in order %v", order)
	}
}

func TestScheduleLengthAndRows(t *testing.T) {
	l := chainLoop()
	s := mustSchedule(t, l, mach("1w1", 256))
	if s.Length() < 9 { // the critical path ld(4)+add(4)+st is 9 cycles
		t.Errorf("Length = %d, want >= 9", s.Length())
	}
	for v := range l.Ops {
		if r := s.Row(v); r != s.Time[v]%s.II {
			t.Errorf("Row(%d) = %d", v, r)
		}
		if st := s.Stage(v); st != s.Time[v]/s.II {
			t.Errorf("Stage(%d) = %d", v, st)
		}
	}
}

// TestWarmWorkspaceAllocatesOnlySchedule pins the spill pass's II growth
// access pattern: one warm Workspace scheduling the same loop at a rising
// MinII allocates only the returned Schedule (the struct plus its time,
// reservation and span slabs). The row-owner index, the victim stamps and
// the memoized order must not allocate once per II.
func TestWarmWorkspaceAllocatesOnlySchedule(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 8
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := widen.Transform(loops[3], 8)
	m := machine.New(machine.Config{Buses: 1, Width: 8}, 256, machine.ThreeCycle)
	ws := NewWorkspace()
	base, err := ModuloSchedule(l, m, &Options{Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	ii := base.II
	allocs := testing.AllocsPerRun(200, func() {
		ii++
		if _, err = ModuloSchedule(l, m, &Options{MinII: ii, Workspace: ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("warm ModuloSchedule over a rising MinII allocates %v times per call, want 4 (the Schedule)", allocs)
	}

	// Into a reused schedule, nothing is allocated at all.
	buf := &Schedule{}
	ii = base.II
	allocs = testing.AllocsPerRun(200, func() {
		ii++
		if _, err = ModuloSchedule(l, m, &Options{MinII: ii, Workspace: ws, Into: buf}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm ModuloSchedule into a reused schedule allocates %v times per call, want 0", allocs)
	}
}

// TestScheduleInto: scheduling into a caller's buffer returns that buffer
// holding exactly the schedule a fresh call returns, over loops of
// different sizes in turn (so the buffer both grows and shrinks).
func TestScheduleInto(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	buf := &Schedule{}
	for i := 0; i < 12; i++ {
		l := randomLoop(rng, 4+rng.Intn(30))
		m := machine.New(machine.Config{Buses: 1 + i%2, Width: 1}, 256, machine.CycleModels()[i%4])
		fresh, err := ModuloSchedule(l, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ModuloSchedule(l, m, &Options{Into: buf})
		if err != nil {
			t.Fatal(err)
		}
		if got != buf {
			t.Fatal("ModuloSchedule with Into returned another schedule")
		}
		if got.Loop != l || got.II != fresh.II || got.Model != fresh.Model || got.Buses != fresh.Buses ||
			got.FPUs != fresh.FPUs || fmt.Sprint(got.Time, got.Res) != fmt.Sprint(fresh.Time, fresh.Res) {
			t.Fatalf("loop %d: into the buffer %v, fresh %v", i, got.Format(), fresh.Format())
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSteadyStateAllocsColdSchedule bounds the cold-start path: a fresh
// clone of each loop of the 40-loop default slice (so no analysis is
// cached) scheduled in one workspace kept across the calls, as an engine
// worker schedules. Measured at 24-27 allocations per loop, mean 24.3.
func TestSteadyStateAllocsColdSchedule(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	p := loopgen.Defaults()
	p.Loops = 40
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Buses: 2, Width: 1}, 256, machine.FourCycle)
	ws := NewWorkspace()
	allocs := testing.AllocsPerRun(5, func() {
		for _, l := range loops {
			if _, err := ModuloSchedule(l.Clone(), m, &Options{Workspace: ws}); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(loops))
	if allocs > 25 {
		t.Errorf("cold ModuloSchedule allocates %.1f times per loop, want <= 25", allocs)
	}
}

// TestWarmWorkspaceReordersWithoutAllocating alternates two loops on one
// warm Workspace, so every call re-sizes the placer for the other loop and
// re-ranks its operations. Each loop's analysis keeps its own HRMS order,
// so each call still allocates only the returned Schedule.
func TestWarmWorkspaceReordersWithoutAllocating(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 8
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.Config{Buses: 2, Width: 4}, 256, machine.FourCycle)
	var pair [2]*ddg.Loop
	for i, src := range []*ddg.Loop{loops[3], loops[5]} {
		pair[i], _ = widen.Transform(src, 4)
	}
	ws := NewWorkspace()
	for _, l := range pair {
		if _, err := ModuloSchedule(l, m, &Options{Workspace: ws}); err != nil {
			t.Fatal(err)
		}
	}
	call := 0
	allocs := testing.AllocsPerRun(200, func() {
		l := pair[call%2]
		call++
		if _, err = ModuloSchedule(l, m, &Options{Workspace: ws}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("warm ModuloSchedule alternating two loops allocates %v times per call, want 4 (the Schedule)", allocs)
	}
}

// TestWorkspaceOrderFollowsLoop: a workspace that alternates between loops
// and cycle models schedules each exactly as a fresh workspace does, so
// no placement state of one loop or model leaks into the next.
func TestWorkspaceOrderFollowsLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var loops []*ddg.Loop
	for i := 0; i < 6; i++ {
		loops = append(loops, randomLoop(rng, 4+rng.Intn(20)))
	}
	ws := NewWorkspace()
	for round := 0; round < 3; round++ {
		for i, l := range loops {
			m := machine.New(machine.Config{Buses: 2, Width: 1}, 256, machine.CycleModels()[(i+round)%4])
			got, err := ModuloSchedule(l, m, &Options{Workspace: ws})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ModuloSchedule(l, m, &Options{Workspace: NewWorkspace()})
			if err != nil {
				t.Fatal(err)
			}
			if got.II != want.II || fmt.Sprint(got.Time) != fmt.Sprint(want.Time) {
				t.Fatalf("round %d loop %d: shared workspace II %d %v, fresh %d %v",
					round, i, got.II, got.Time, want.II, want.Time)
			}
		}
	}
}
