package regalloc_test

import (
	"testing"

	"repro/internal/lifetimes"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/widen"
)

// TestWideningLowersRegisterRequirement is the paper's Section 3.2
// register-capacity argument in isolation: at the unconstrained schedule,
// the 60-loop default slice needs fewer wide registers per loop on 4w2
// than registers on the equal-peak 8w1 (measured 75.0 against 132.2),
// because each wide register holds two words.
func TestWideningLowersRegisterRequirement(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 60
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(cfg machine.Config) float64 {
		m := machine.New(cfg, 1<<20, machine.FourCycle)
		total := 0
		for _, l := range loops {
			tl, _ := widen.Transform(l, cfg.Width)
			s, err := sched.ModuloSchedule(tl, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			total += regalloc.MinRegs(lifetimes.Compute(s), regalloc.EndFit)
		}
		return float64(total) / float64(len(loops))
	}
	replicated := mean(machine.Config{Buses: 8, Width: 1})
	widened := mean(machine.Config{Buses: 4, Width: 2})
	t.Logf("mean registers per loop: 8w1 %.1f, 4w2 %.1f", replicated, widened)
	if widened >= replicated {
		t.Errorf("4w2 needs %.1f registers per loop, not below 8w1's %.1f", widened, replicated)
	}
}
