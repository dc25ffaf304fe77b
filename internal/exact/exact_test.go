package exact

import (
	"math"
	"testing"

	"repro/internal/ddg"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/mrt"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/workload"
)

// testBudget is generous enough that every tiny loop in these tests proves
// both optima outright.
const testBudget = 5_000_000

func smallMachine(buses int) machine.Machine {
	return machine.New(machine.Config{Buses: buses, Width: 1}, 1<<20, machine.FourCycle)
}

func mkLoop(name string, kinds []machine.OpKind, edges []ddg.Edge) *ddg.Loop {
	l := &ddg.Loop{Name: name, Trips: 1000, Edges: edges}
	for i, k := range kinds {
		l.Ops = append(l.Ops, ddg.Op{ID: i, Kind: k, Stride: 1, Lanes: 1})
	}
	return l
}

// handLoops are small hand-built loops covering chains, recurrences,
// self-edges and non-pipelined (multi-row / multi-unit) reservations.
func handLoops() []*ddg.Loop {
	return []*ddg.Loop{
		mkLoop("chain", []machine.OpKind{machine.Load, machine.Add, machine.Mul, machine.Store},
			[]ddg.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}),
		mkLoop("self-rec", []machine.OpKind{machine.Load, machine.Add, machine.Store},
			[]ddg.Edge{{From: 0, To: 1}, {From: 1, To: 1, Dist: 1}, {From: 1, To: 2}}),
		mkLoop("cycle2", []machine.OpKind{machine.Add, machine.Mul, machine.Store},
			[]ddg.Edge{{From: 0, To: 1}, {From: 1, To: 0, Dist: 2}, {From: 1, To: 2}}),
		mkLoop("div-rec", []machine.OpKind{machine.Load, machine.Div, machine.Store},
			[]ddg.Edge{{From: 0, To: 1}, {From: 1, To: 1, Dist: 3}, {From: 1, To: 2}}),
		mkLoop("sqrt-chain", []machine.OpKind{machine.Load, machine.Sqrt, machine.Add, machine.Store},
			[]ddg.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}),
		mkLoop("two-div", []machine.OpKind{machine.Load, machine.Div, machine.Div, machine.Store},
			[]ddg.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}}),
	}
}

// bruteLoops extends the hand-built set with small workload loops.
func bruteLoops(t *testing.T) []*ddg.Loop {
	t.Helper()
	loops := handLoops()
	w, err := workload.Build(workload.Default, 30, 11)
	if err != nil {
		t.Fatalf("workload.Build: %v", err)
	}
	picked := 0
	for _, l := range w.Loops {
		if l.NumOps() >= 3 && l.NumOps() <= 6 && picked < 8 {
			loops = append(loops, l)
			picked++
		}
	}
	return loops
}

// bruteStagesOK decides stage feasibility of the assigned row prefix
// (ops 0..hi) by Floyd-Warshall longest paths over the difference
// constraints — an implementation independent of the solver's incremental
// Bellman-Ford.
func bruteStagesOK(l *ddg.Loop, model machine.CycleModel, rows []int, hi, ii int) bool {
	n := hi + 1
	const negInf = math.MinInt32
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
		for j := range dist[i] {
			dist[i][j] = negInf
		}
		dist[i][i] = 0
	}
	for _, e := range l.Edges {
		if e.From > hi || e.To > hi {
			continue
		}
		lat := model.Latency(l.Ops[e.From].Kind)
		w := int(math.Ceil(float64(lat-ii*e.Dist+rows[e.From]-rows[e.To]) / float64(ii)))
		if e.From == e.To {
			if w > 0 {
				return false
			}
			continue
		}
		if w > dist[e.From][e.To] {
			dist[e.From][e.To] = w
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] == negInf {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] == negInf {
					continue
				}
				if d := dist[i][k] + dist[k][j]; d > dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if dist[i][i] > 0 {
			return false
		}
	}
	return true
}

// brutePlaceOp tries every unit assignment for op v at row r (no symmetry
// pruning), calling cont with the reservation held and releasing it after.
func brutePlaceOp(table *mrt.Table, l *ddg.Loop, model machine.CycleModel, v, r, ii int, cont func() bool) bool {
	c := mrt.FPU
	if l.Ops[v].Kind.IsMem() {
		c = mrt.Mem
	}
	occ := model.Occupancy(l.Ops[v].Kind)
	try := func(spans []mrt.Span) bool {
		rsv := mrt.Reservation{Class: c, Spans: spans}
		if !table.PlaceExact(rsv) {
			return false
		}
		if cont() {
			return true
		}
		table.Release(rsv)
		return false
	}
	if occ <= ii {
		for u := 0; u < table.Units(c); u++ {
			if try([]mrt.Span{{Unit: u, Cycle: r, Occ: occ}}) {
				return true
			}
		}
		return false
	}
	full, rem := occ/ii, occ%ii
	units := table.Units(c)
	var combos func(next int, chosen []int) bool
	host := -1
	combos = func(next int, chosen []int) bool {
		if len(chosen) == full {
			spans := make([]mrt.Span, 0, full+1)
			if rem > 0 {
				spans = append(spans, mrt.Span{Unit: host, Cycle: r, Occ: rem})
			}
			for _, u := range chosen {
				spans = append(spans, mrt.Span{Unit: u, Cycle: r, Occ: ii})
			}
			return try(spans)
		}
		for u := next; u < units; u++ {
			if u == host {
				continue
			}
			if combos(u+1, append(chosen, u)) {
				return true
			}
		}
		return false
	}
	if rem == 0 {
		return combos(0, nil)
	}
	for h := 0; h < units; h++ {
		host = h
		if combos(0, nil) {
			return true
		}
	}
	return false
}

// bruteFeasibleII reports whether any schedule of l exists at exactly this
// II, enumerating every row and unit assignment.
func bruteFeasibleII(l *ddg.Loop, m machine.Machine, ii int) bool {
	buses, fpus := m.Slots()
	table := mrt.New(ii, buses, fpus)
	n := l.NumOps()
	rows := make([]int, n)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return true
		}
		for r := 0; r < ii; r++ {
			rows[v] = r
			if !bruteStagesOK(l, m.Model, rows, v, ii) {
				continue
			}
			if brutePlaceOp(table, l, m.Model, v, r, ii, func() bool { return rec(v + 1) }) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// TestBruteForceCrossCheck verifies the solver against full enumeration on
// small loops: the proved-optimal II is exactly the smallest feasible II,
// and the reported MinRegs is exactly the brute-force optimum packing of
// the returned schedule's lifetimes.
func TestBruteForceCrossCheck(t *testing.T) {
	for _, buses := range []int{1, 2} {
		m := smallMachine(buses)
		for _, l := range bruteLoops(t) {
			r, err := Solve(l, m, &Options{NodeBudget: testBudget})
			if err != nil {
				t.Fatalf("buses=%d %s: Solve: %v", buses, l.Name, err)
			}
			if !r.IIProved {
				t.Fatalf("buses=%d %s: II not proved with a %d-node budget (nodes=%d)", buses, l.Name, testBudget, r.Nodes)
			}
			if r.II > 10 {
				continue // keep the brute-force enumeration bounded
			}
			if !bruteFeasibleII(l, m, r.II) {
				t.Errorf("buses=%d %s: solver says II=%d feasible, brute force disagrees", buses, l.Name, r.II)
			}
			b, f := m.Slots()
			low := l.Analysis().MII(m.Model, b, f)
			for ii := low; ii < r.II; ii++ {
				if bruteFeasibleII(l, m, ii) {
					t.Errorf("buses=%d %s: brute force schedules II=%d but solver proved %d optimal", buses, l.Name, ii, r.II)
				}
			}

			set := lifetimes.Compute(r.Sched)
			if len(set.Values) <= 6 {
				want := brutePackMin(set)
				if r.MinRegs != want {
					t.Errorf("buses=%d %s: MinRegs=%d, brute-force packing=%d", buses, l.Name, r.MinRegs, want)
				}
			}
		}
	}
}

// brutePackFits enumerates every offset combination at a register count.
func brutePackFits(set *lifetimes.Set, regs int) bool {
	circ := regs * set.II
	busy := make([]bool, circ)
	place := func(v lifetimes.Value, k int, on bool) bool {
		if v.Len > circ {
			return false
		}
		start := ((v.Start+k*set.II)%circ + circ) % circ
		if on {
			for i := 0; i < v.Len; i++ {
				if busy[(start+i)%circ] {
					for j := 0; j < i; j++ {
						busy[(start+j)%circ] = false
					}
					return false
				}
				busy[(start+i)%circ] = true
			}
			return true
		}
		for i := 0; i < v.Len; i++ {
			busy[(start+i)%circ] = false
		}
		return true
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(set.Values) {
			return true
		}
		for k := 0; k < regs; k++ {
			if place(set.Values[i], k, true) {
				if rec(i + 1) {
					return true
				}
				place(set.Values[i], k, false)
			}
		}
		return false
	}
	return rec(0)
}

func brutePackMin(set *lifetimes.Set) int {
	if len(set.Values) == 0 {
		return 0
	}
	for regs := 1; ; regs++ {
		if brutePackFits(set, regs) {
			return regs
		}
	}
}

// TestPackMinRegsBruteForce cross-checks the exact packer directly on
// lifetime sets of small scheduled loops.
func TestPackMinRegsBruteForce(t *testing.T) {
	m := smallMachine(2)
	for _, l := range bruteLoops(t) {
		s, err := sched.ModuloSchedule(l, m, nil)
		if err != nil {
			t.Fatalf("%s: ModuloSchedule: %v", l.Name, err)
		}
		set := lifetimes.Compute(s)
		if len(set.Values) > 6 {
			continue
		}
		got, proved := PackMinRegs(set, testBudget)
		if !proved {
			t.Fatalf("%s: packing not proved with a %d-node budget", l.Name, testBudget)
		}
		if want := brutePackMin(set); got != want {
			t.Errorf("%s: PackMinRegs=%d, brute force=%d", l.Name, got, want)
		}
		if greedy := regalloc.MinRegs(set, regalloc.EndFit); got > greedy {
			t.Errorf("%s: PackMinRegs=%d worse than greedy %d", l.Name, got, greedy)
		}
	}
}

// TestWorkbenchDifferential asserts the solver's invariants against the
// heuristic pipeline on every workbench loop: never a worse II, never a
// worse register count at an equal II, bounds always sound, and every
// returned schedule valid.
func TestWorkbenchDifferential(t *testing.T) {
	m := smallMachine(2)
	var loops []*ddg.Loop
	for _, spec := range []struct {
		name string
		n    int
		seed int64
	}{{workload.Default, 40, 3}, {"divheavy", 12, 1}, {"recurrence", 12, 2}} {
		w, err := workload.Build(spec.name, spec.n, spec.seed)
		if err != nil {
			t.Fatalf("workload.Build(%s): %v", spec.name, err)
		}
		loops = append(loops, w.Loops...)
	}
	buses, fpus := m.Slots()
	for _, l := range loops {
		heur, err := sched.ModuloSchedule(l, m, nil)
		if err != nil {
			t.Fatalf("%s: ModuloSchedule: %v", l.Name, err)
		}
		hset := lifetimes.Compute(heur)
		hregs := regalloc.MinRegs(hset, regalloc.EndFit)

		r, err := Solve(l, m, &Options{NodeBudget: 30_000})
		if err != nil {
			t.Fatalf("%s: Solve: %v", l.Name, err)
		}
		if r.HeurII != heur.II || r.HeurRegs != hregs {
			t.Errorf("%s: heuristic baseline mismatch: got (%d,%d), want (%d,%d)", l.Name, r.HeurII, r.HeurRegs, heur.II, hregs)
		}
		if r.II > heur.II {
			t.Errorf("%s: exact II=%d worse than heuristic %d", l.Name, r.II, heur.II)
		}
		mii := l.Analysis().MII(m.Model, buses, fpus)
		if r.LowerII < mii || r.LowerII > r.II {
			t.Errorf("%s: LowerII=%d outside [MII=%d, II=%d]", l.Name, r.LowerII, mii, r.II)
		}
		if r.IIProved != (r.II == r.LowerII) {
			t.Errorf("%s: IIProved=%v inconsistent with II=%d LowerII=%d", l.Name, r.IIProved, r.II, r.LowerII)
		}
		if err := r.Sched.Validate(); err != nil {
			t.Errorf("%s: exact schedule invalid: %v", l.Name, err)
		}
		if r.Sched.II != r.II {
			t.Errorf("%s: Sched.II=%d != II=%d", l.Name, r.Sched.II, r.II)
		}
		if r.II == heur.II && r.MinRegs > hregs {
			t.Errorf("%s: exact MinRegs=%d worse than heuristic %d at equal II", l.Name, r.MinRegs, hregs)
		}
		if r.MinRegs < r.RegsLower {
			t.Errorf("%s: MinRegs=%d below its own lower bound %d", l.Name, r.MinRegs, r.RegsLower)
		}
		if live := lifetimes.Compute(r.Sched).MaxLive(); r.MinRegs < live {
			t.Errorf("%s: MinRegs=%d below MaxLive=%d of the returned schedule", l.Name, r.MinRegs, live)
		}
		if pm, _ := PackMinRegs(hset, 30_000); pm > hregs {
			t.Errorf("%s: exact packing %d worse than greedy %d on the heuristic schedule", l.Name, pm, hregs)
		}
	}
}

// TestSteadyStateAllocsSolve bounds one warm Solve at NodeBudget 20 000 on
// reduce0001, the first loop of the 40-loop default slice within the
// exact search size (11 ops): measured 82 allocations. Across every such
// loop of the slice the mean is 7563 allocations per Solve, a target to
// cut rather than a bound.
func TestSteadyStateAllocsSolve(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are pinned without the race detector")
	}
	w, err := workload.Build(workload.Default, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	var l *ddg.Loop
	for _, c := range w.Loops {
		if c.NumOps() <= DefaultMaxOps {
			l = c
			break
		}
	}
	if l == nil || l.Name != "reduce0001" || l.NumOps() != 11 {
		t.Fatalf("first small loop = %v, want reduce0001 with 11 ops", l)
	}
	m := smallMachine(2)
	allocs := testing.AllocsPerRun(20, func() {
		r, err := Solve(l, m, &Options{NodeBudget: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		if r.II > r.HeurII {
			t.Fatal("exact II above the heuristic incumbent")
		}
	})
	if allocs > 200 {
		t.Errorf("warm Solve allocates %v times, want <= 200", allocs)
	}
}
