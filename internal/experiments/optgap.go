package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ddg"
	"repro/internal/exact"
	"repro/internal/lifetimes"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// ------------------------------------------------------------------ optgap
//
// Every published number in this reproduction rests on the heuristic
// pipeline (HRMS-ordered modulo scheduling, Rau end-fit allocation). The
// `optgap` experiment quantifies how far those heuristics sit from the
// true optimum: it reruns every small workbench loop through the
// branch-and-bound exact solver (internal/exact) and reports the per-loop
// II and register-count deltas together with proof-of-optimality flags.
// Budget exhaustion only widens the unproved interval — the solver never
// reports an optimum it cannot exhibit as a feasible schedule, and never
// a bound it did not prove.

const (
	// optgapMaxOps bounds the loops the exact search attempts; larger
	// loops are skipped (and counted) rather than half-searched.
	optgapMaxOps = 10
	// optgapNodeBudget is the per-loop placement-attempt budget.
	optgapNodeBudget = 20_000
	// optgapScenarioLoops is the per-scenario suite size of the aggregate
	// rows: small enough that seven extra scenario sweeps stay cheap,
	// large enough to show each scenario's character.
	optgapScenarioLoops = 24
	// optgapDetail caps the per-loop detail listing in the render (the
	// CSV table and JSON artifact always carry every searched loop).
	optgapDetail = 20
)

// optgapMachine is the fixed comparison point: the paper's 2w1 (two
// buses, four FPUs) under the four-cycle model, with an unconstrained
// register file so the register-count comparison measures pure packing
// quality rather than spill interaction.
func optgapMachine() machine.Machine {
	return machine.New(machine.Config{Buses: 2, Width: 1}, 1<<20, machine.FourCycle)
}

// OptgapLoop is one loop's heuristic-vs-exact comparison.
type OptgapLoop struct {
	Name string
	Ops  int
	// Searched reports whether the loop was small enough for the exact
	// branch-and-bound search. Larger loops still get sound bounds (the
	// MII below, the exact packing of the heuristic schedule above), so
	// a large loop whose heuristic schedule already meets its MII is
	// proved optimal with zero search.
	Searched bool
	// HeurII / ExactII are the heuristic and best-found IIs; LowerII is
	// the smallest II the solver did not refute, so IIProved means the
	// heuristic gap HeurII - ExactII is exact, not an upper estimate.
	HeurII   int
	ExactII  int
	LowerII  int
	IIProved bool
	// HeurRegs is the greedy end-fit register count of the heuristic
	// schedule; ExactRegs the best exact packing found (of the best
	// schedule); RegsLower the schedule-independent bound at ExactII.
	HeurRegs   int
	ExactRegs  int
	RegsLower  int
	RegsProved bool
	// Nodes is the solver's spent placement attempts.
	Nodes int
}

// IIGap is the proven-or-better heuristic II excess.
func (g OptgapLoop) IIGap() int { return g.HeurII - g.ExactII }

// RegsGap is the heuristic register excess (negative when the exact
// schedule trades registers for its lower II).
func (g OptgapLoop) RegsGap() int { return g.HeurRegs - g.ExactRegs }

// interesting marks loops worth showing in the render detail: any gap on
// either axis, or an unproved II optimum.
func (g OptgapLoop) interesting() bool {
	return g.IIGap() != 0 || g.RegsGap() != 0 || !g.IIProved
}

// OptgapRow aggregates one workload scenario at optgapScenarioLoops.
type OptgapRow struct {
	Name string
	// Loops is the scenario suite size, Small how many of them the exact
	// search attempted (<= optgapMaxOps ops).
	Loops, Small int
	// IIProved / RegsProved count searched loops with proved optima.
	IIProved, RegsProved int
	// IIGapLoops / IIGapMax: loops where the heuristic II exceeds the
	// exact one, and the largest such excess. Same for registers.
	IIGapLoops, IIGapMax     int
	RegsGapLoops, RegsGapMax int
	// Nodes totals the solver's placement attempts over the suite.
	Nodes int
}

// OptgapResult is the heuristic-optimality-gap artifact.
type OptgapResult struct {
	// Workload names the context scenario behind the per-loop section.
	Workload string
	// MaxOps and NodeBudget record the solver limits used.
	MaxOps     int
	NodeBudget int
	// SuiteLoops is the per-scenario suite size of Rows.
	SuiteLoops int
	// Loops compares every context-workbench loop; loops above MaxOps
	// are bounds-only (see OptgapLoop.Searched).
	Loops []OptgapLoop
	// Rows are the per-scenario aggregates.
	Rows []OptgapRow
}

// optgapSolveLoop runs the exact solver against the heuristic pipeline on
// one loop. The optgap gate test reuses it on its pinned slice.
func optgapSolveLoop(l *ddg.Loop, m machine.Machine, budget int) (OptgapLoop, error) {
	r, err := exact.Solve(l, m, &exact.Options{NodeBudget: budget, MaxOps: optgapMaxOps})
	if err != nil {
		return OptgapLoop{}, err
	}
	return OptgapLoop{
		Name:       l.Name,
		Ops:        l.NumOps(),
		Searched:   r.Searched,
		HeurII:     r.HeurII,
		ExactII:    r.II,
		LowerII:    r.LowerII,
		IIProved:   r.IIProved,
		HeurRegs:   r.HeurRegs,
		ExactRegs:  r.MinRegs,
		RegsLower:  r.RegsLower,
		RegsProved: r.RegsProved,
		Nodes:      r.Nodes,
	}, nil
}

// Optgap sweeps the context workbench's small loops through the exact
// solver, then builds per-scenario aggregate rows at a small fixed suite
// size. Loops are solved concurrently; results accumulate in input order,
// so the artifact is deterministic.
func Optgap(c *Context) (*OptgapResult, error) {
	m := optgapMachine()
	res := &OptgapResult{
		Workload:   c.Workload.Name,
		MaxOps:     optgapMaxOps,
		NodeBudget: optgapNodeBudget,
		SuiteLoops: optgapScenarioLoops,
	}

	type outcome struct {
		g   OptgapLoop
		err error
	}
	solved := sweep.Map(len(c.Workload.Loops), c.Workload.Loops, func(l *ddg.Loop) outcome {
		g, err := optgapSolveLoop(l, m, optgapNodeBudget)
		return outcome{g: g, err: err}
	})
	for _, o := range solved {
		if o.err != nil {
			return nil, o.err
		}
		res.Loops = append(res.Loops, o.g)
	}

	names := workload.Names()
	type rowOutcome struct {
		row OptgapRow
		err error
	}
	rows := sweep.Map(len(names), names, func(name string) rowOutcome {
		w, err := workload.Build(name, optgapScenarioLoops, c.seed)
		if err != nil {
			return rowOutcome{err: err}
		}
		row := OptgapRow{Name: name, Loops: len(w.Loops)}
		for _, l := range w.Loops {
			g, err := optgapSolveLoop(l, m, optgapNodeBudget)
			if err != nil {
				return rowOutcome{err: err}
			}
			if g.Searched {
				row.Small++
			}
			row.Nodes += g.Nodes
			if g.IIProved {
				row.IIProved++
			}
			if g.RegsProved {
				row.RegsProved++
			}
			if gap := g.IIGap(); gap > 0 {
				row.IIGapLoops++
				if gap > row.IIGapMax {
					row.IIGapMax = gap
				}
			}
			if gap := g.RegsGap(); gap > 0 {
				row.RegsGapLoops++
				if gap > row.RegsGapMax {
					row.RegsGapMax = gap
				}
			}
		}
		return rowOutcome{row: row}
	})
	for _, o := range rows {
		if o.err != nil {
			return nil, o.err
		}
		res.Rows = append(res.Rows, o.row)
	}
	return res, nil
}

func (*OptgapResult) ID() string { return "optgap" }
func (*OptgapResult) Title() string {
	return "Heuristic optimality gap vs the exact branch-and-bound backend"
}

// searchedStats returns the per-loop section's searched and proved counts
// and the gap-loop count (II gaps, register gaps or unproved optima).
func (r *OptgapResult) searchedStats() (searched, iiProved, regsProved, interesting int) {
	for _, g := range r.Loops {
		if g.Searched {
			searched++
		}
		if g.IIProved {
			iiProved++
		}
		if g.RegsProved {
			regsProved++
		}
		if g.interesting() {
			interesting++
		}
	}
	return
}

// Table returns the flat per-loop comparison for CSV export.
func (r *OptgapResult) Table() [][]string {
	rows := [][]string{{"loop", "ops", "searched", "heur_ii", "exact_ii", "lower_ii",
		"ii_proved", "heur_regs", "exact_regs", "regs_lower", "regs_proved", "nodes"}}
	for _, g := range r.Loops {
		rows = append(rows, []string{
			g.Name,
			fmt.Sprint(g.Ops),
			fmt.Sprint(g.Searched),
			fmt.Sprint(g.HeurII),
			fmt.Sprint(g.ExactII),
			fmt.Sprint(g.LowerII),
			fmt.Sprint(g.IIProved),
			fmt.Sprint(g.HeurRegs),
			fmt.Sprint(g.ExactRegs),
			fmt.Sprint(g.RegsLower),
			fmt.Sprint(g.RegsProved),
			fmt.Sprint(g.Nodes),
		})
	}
	return rows
}

func (r *OptgapResult) Render() string {
	searched, iiProved, regsProved, interesting := r.searchedStats()
	var b strings.Builder
	fmt.Fprintf(&b, "exact branch-and-bound vs heuristic pipeline on 2w1, unconstrained registers; search on loops <= %d ops, %d nodes/loop (larger loops: bounds only)\n",
		r.MaxOps, r.NodeBudget)
	fmt.Fprintf(&b, "workbench %s: %d loops (%d searched exactly); II optimal proved %d/%d, register count proved %d/%d\n\n",
		r.Workload, len(r.Loops), searched, iiProved, len(r.Loops), regsProved, len(r.Loops))
	rows := [][]string{{"workload", "loops", "small", "ii_proved", "ii_gaps",
		"max_ii_gap", "regs_proved", "regs_gaps", "max_regs_gap", "nodes"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprint(row.Loops),
			fmt.Sprint(row.Small),
			fmt.Sprint(row.IIProved),
			fmt.Sprint(row.IIGapLoops),
			fmt.Sprint(row.IIGapMax),
			fmt.Sprint(row.RegsProved),
			fmt.Sprint(row.RegsGapLoops),
			fmt.Sprint(row.RegsGapMax),
			fmt.Sprint(row.Nodes),
		})
	}
	b.WriteString(textplot.Table(rows))
	b.WriteByte('\n')
	if interesting == 0 {
		b.WriteString("every searched workbench loop: heuristic II and register count proved optimal\n")
		return b.String()
	}
	shown := interesting
	if shown > optgapDetail {
		shown = optgapDetail
	}
	fmt.Fprintf(&b, "workbench loops with a gap or unproved optimum (%d of %d):\n", shown, interesting)
	det := [][]string{{"loop", "ops", "heur_ii", "exact_ii", "lower_ii",
		"ii_proved", "heur_regs", "exact_regs"}}
	n := 0
	for _, g := range r.Loops {
		if !g.interesting() || n == optgapDetail {
			continue
		}
		n++
		det = append(det, []string{
			g.Name,
			fmt.Sprint(g.Ops),
			fmt.Sprint(g.HeurII),
			fmt.Sprint(g.ExactII),
			fmt.Sprint(g.LowerII),
			fmt.Sprint(g.IIProved),
			fmt.Sprint(g.HeurRegs),
			fmt.Sprint(g.ExactRegs),
		})
	}
	b.WriteString(textplot.Table(det))
	return b.String()
}

// optgapHeuristic recomputes the heuristic side alone (schedule + greedy
// end-fit register count); the differential tests cross-check the solver's
// embedded baseline against it.
func optgapHeuristic(l *ddg.Loop, m machine.Machine) (ii, regs int, err error) {
	s, err := sched.ModuloSchedule(l, m, nil)
	if err != nil {
		return 0, 0, err
	}
	return s.II, regalloc.MinRegs(lifetimes.Compute(s), regalloc.EndFit), nil
}
