package ddg

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
)

func analysisTestLoop() *Loop {
	b := NewBuilder("cache", 100)
	ld := b.Load(1, "ld")
	a1 := b.Op(machine.Add, "a1")
	a2 := b.Op(machine.Add, "a2")
	st := b.Store(1, "st")
	b.Flow(ld, a1, 0)
	b.Flow(a1, a2, 0)
	b.Flow(a2, st, 0)
	b.Flow(a2, a1, 1) // recurrence
	return b.Build()
}

// TestAnalysisMemoizes asserts repeated analysis calls return the same
// cached snapshot and the same backing slices (compute-once semantics).
func TestAnalysisMemoizes(t *testing.T) {
	l := analysisTestLoop()
	a := l.Analysis()
	if l.Analysis() != a {
		t.Fatal("Analysis returned a different snapshot for an unchanged loop")
	}
	asap := l.ASAP(machine.FourCycle)
	if &l.ASAP(machine.FourCycle)[0] != &asap[0] {
		t.Error("ASAP recomputed despite cache")
	}
	succs := l.Succs()
	if &l.Succs()[0] != &succs[0] {
		t.Error("Succs recomputed despite cache")
	}
	// Distinct models must not share entries.
	if l.ASAP(machine.OneCycle)[3] == asap[3] {
		t.Error("one-cycle ASAP equals four-cycle ASAP at the store")
	}
}

// TestAnalysisInvalidatesOnAppend asserts an append-style mutation —
// new ops and edges, with no Spill to reset the snapshot — is picked up
// without an explicit invalidate.
func TestAnalysisInvalidatesOnAppend(t *testing.T) {
	l := analysisTestLoop()
	before := l.RecMII(machine.FourCycle)
	a := l.Analysis()

	// Lengthen the recurrence by hand: a new op on the a2 -> a1 carried
	// edge, appended without a Loop.Spill, so nothing resets the snapshot.
	id := len(l.Ops)
	l.Ops = append(l.Ops, Op{ID: id, Kind: machine.Add, Lanes: 1, Name: "x"})
	for i, e := range l.Edges {
		if e.From == 2 && e.To == 1 && e.Dist == 1 {
			l.Edges[i] = Edge{From: 2, To: id, Dist: 0}
		}
	}
	l.Edges = append(l.Edges, Edge{From: id, To: 1, Dist: 1})

	if l.Analysis() == a {
		t.Fatal("Analysis snapshot survived an append mutation")
	}
	after := l.RecMII(machine.FourCycle)
	if after <= before {
		t.Errorf("RecMII = %d after lengthening the recurrence, was %d", after, before)
	}
}

// TestAnalysisExplicitInvalidate covers in-place mutations that keep the
// op and edge counts: InvalidateAnalysis must drop the snapshot.
func TestAnalysisExplicitInvalidate(t *testing.T) {
	l := analysisTestLoop()
	before := l.RecMII(machine.FourCycle)
	l.Edges[3].Dist = 2 // relax the recurrence in place: same edge count
	l.InvalidateAnalysis()
	after := l.RecMII(machine.FourCycle)
	if after >= before {
		t.Errorf("RecMII = %d after doubling the carried distance, was %d", after, before)
	}
}

// TestAnalysisCloneDoesNotShare asserts Clone starts with a fresh cache.
func TestAnalysisCloneDoesNotShare(t *testing.T) {
	l := analysisTestLoop()
	a := l.Analysis()
	c := l.Clone()
	if c.Analysis() == a {
		t.Fatal("clone shares the source loop's analysis snapshot")
	}
}

// TestAnalysisConcurrent hammers one loop's analyses from many goroutines
// (meaningful under -race): the perfcost engine analyses shared widened
// loops concurrently, and schedules and exact solves order them. The
// goroutines also read the HRMS order at two cycle models, so the first to
// ask for one computes it while the others wait or read it.
func TestAnalysisConcurrent(t *testing.T) {
	l := analysisTestLoop()
	want := l.MII(machine.FourCycle, 1, 2)
	models := []machine.CycleModel{machine.TwoCycle, machine.OneCycle}
	var wantOrder [2][]int
	for i, model := range models {
		wantOrder[i] = slices.Clone(l.Clone().Analysis().HRMSOrder(model))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := l.MII(machine.FourCycle, 1, 2); got != want {
					t.Errorf("MII = %d, want %d", got, want)
					return
				}
				k := (g + i) % 2
				if got := l.Analysis().HRMSOrder(models[k]); !slices.Equal(got, wantOrder[k]) {
					t.Errorf("HRMSOrder(%v) = %v, want %v", models[k], got, wantOrder[k])
					return
				}
				l.ASAP(machine.TwoCycle)
				l.ALAP(machine.ThreeCycle)
				l.RecurrenceOps()
				l.SCCs()
			}
		}()
	}
	wg.Wait()
}
