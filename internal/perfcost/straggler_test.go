package perfcost

import (
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/spill"
)

// TestStragglerAccounting: a suite where one loop cannot be pipelined
// within the register file stays OK (<= 1% rule does not apply at 2 loops;
// here both fail) — build the complementary cases explicitly.
func TestStragglerAccounting(t *testing.T) {
	// Loop A: trivially schedulable anywhere.
	ba := ddg.NewBuilder("easy", 100)
	ld := ba.Load(1, "")
	st := ba.Store(1, "")
	ba.Flow(ld, st, 0)
	easy := ba.Build()

	// Loop B: 70 live accumulators can never fit 64 registers at any II
	// (recurrence values are unspillable).
	bb := ddg.NewBuilder("hard", 100)
	for i := 0; i < 70; i++ {
		a := bb.Op(machine.Add, "")
		bb.Flow(a, a, 1)
	}
	hard := bb.Build()

	// 1 failure out of 2 loops = 50% > 1%: the point is not OK.
	e := New([]*ddg.Loop{easy, hard}, nil)
	r := e.SuiteCycles(machine.Config{Buses: 1, Width: 1}, 64, machine.FourCycle)
	if r.OK {
		t.Error("50% failures must mark the point unschedulable")
	}
	if r.Failures != 1 {
		t.Errorf("Failures = %d, want 1", r.Failures)
	}
	// The failed loop is still charged cycles: the length of its flat
	// schedule, the register-independent base schedule, per iteration.
	c := machine.Config{Buses: 1, Width: 1}
	flat, err := sched.ModuloSchedule(hard, machine.New(c, 1<<20, machine.FourCycle), nil)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := spill.Schedule(easy, machine.New(c, 64, machine.FourCycle), nil)
	if err != nil || !fit.OK {
		t.Fatalf("easy loop: %v, OK=%v", err, fit.OK)
	}
	if want := float64(easy.Trips)*float64(fit.II()) + float64(hard.Trips)*float64(flat.Length()); r.Cycles != want {
		t.Errorf("Cycles = %v, want %v (the hard loop charged %d cycles per iteration)", r.Cycles, want, flat.Length())
	}

	// 1 failure out of 150 loops = under the 1% rule: OK, with the
	// straggler charged its unpipelined cost.
	many := []*ddg.Loop{hard}
	p := loopgen.Defaults()
	p.Loops = 149
	suite, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	many = append(many, suite...)
	e2 := New(many, nil)
	r3 := e2.SuiteCycles(machine.Config{Buses: 1, Width: 1}, 64, machine.FourCycle)
	if !r3.OK {
		t.Errorf("1 straggler in 150 loops must stay OK (failures=%d)", r3.Failures)
	}
	if r3.Failures != 1 {
		t.Errorf("Failures = %d, want exactly the accumulator loop", r3.Failures)
	}
}
