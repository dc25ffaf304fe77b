package experiments

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/sweep"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// --------------------------------------------------------------- workloads
//
// The paper evaluates one workload — the Perfect Club loop suite — but
// its conclusions hinge on that suite's aggregate shape: how much of it
// compacts, how much is recurrence-bound, how far lifetimes stretch. The
// `workloads` experiment re-runs the headline comparison (the four ways
// to build a peak-8 machine with 128 registers, Figure 8d) over every
// registered workload scenario, showing which conclusions are properties
// of the technique and which are properties of the workload.

// headlinePoints is the equal-peak-8 quartet of Figure 8d: pure
// replication, two mixes, pure widening, all at a 128-register file.
var headlinePoints = []struct {
	cfg         string
	regs, parts int
}{
	{"8w1", 128, 8},
	{"4w2", 128, 4},
	{"2w4", 128, 2},
	{"1w8", 128, 1},
}

// HeadlineLabels lists the sensitivity columns in render order.
func HeadlineLabels() []string {
	out := make([]string, len(headlinePoints))
	for i, h := range headlinePoints {
		out[i] = fmt.Sprintf("%s(%d:%d)", h.cfg, h.regs, h.parts)
	}
	return out
}

// WorkloadCell is one scenario x design-point evaluation.
type WorkloadCell struct {
	Label   string
	Speedup float64
	// OK is false when the point cannot schedule the scenario's suite
	// (its failed loops ride the flat-schedule fallback).
	OK bool
}

// WorkloadRow is one scenario's sensitivity row.
type WorkloadRow struct {
	Name        string
	Description string
	// Loops and Ops size the evaluated suite.
	Loops, Ops int
	// CompactableFrac and RecurrentFrac are the aggregate shape drivers.
	CompactableFrac float64
	RecurrentFrac   float64
	// BaselineOK is false when even 1w1(32:1) cannot pipeline the suite
	// (the pressure-bound scenarios); speed-ups are then measured against
	// the flat-schedule fallback cost.
	BaselineOK bool
	// Best names the winning headline point for this scenario.
	Best string
	// Cells align with HeadlineLabels.
	Cells []WorkloadCell
}

// WorkloadsResult is the cross-workload sensitivity table.
type WorkloadsResult struct {
	// SuiteLoops is the per-scenario suite size the generated scenarios
	// were built at (fixed libraries keep their own size).
	SuiteLoops int
	Rows       []WorkloadRow
}

// sensitivityLoops is the per-scenario suite size when the context holds
// the full-size default workload: large enough for stable speed-ups,
// small enough that six extra scenario sweeps do not dominate `all`.
const sensitivityLoops = 150

// Workloads evaluates the headline design points over every registered
// workload scenario. Scenarios are swept concurrently, each on its own
// engine (schedules of different workloads must never mix caches).
func Workloads(c *Context) (*WorkloadsResult, error) {
	n := c.loops
	if n <= 0 {
		n = sensitivityLoops
	}
	labels := HeadlineLabels()
	cells := make([]sweep.Cell, len(headlinePoints))
	for i, h := range headlinePoints {
		cfg, err := machine.ParseConfig(h.cfg)
		if err != nil {
			return nil, err
		}
		cells[i] = sweep.Cell{Config: cfg, Regs: h.regs, Partitions: h.parts}
	}
	names := workload.Names()
	type outcome struct {
		row WorkloadRow
		err error
	}
	outcomes := sweep.Map(len(names), names, func(name string) outcome {
		w, err := workload.Build(name, n, c.seed)
		if err != nil {
			return outcome{err: err}
		}
		e := perfcost.NewFromWorkload(w, nil)
		stats := w.Stats()
		row := WorkloadRow{
			Name:            name,
			Description:     w.Description,
			Loops:           stats.Loops,
			Ops:             stats.Ops,
			CompactableFrac: stats.CompactableFrac,
			RecurrentFrac:   stats.RecurrentFrac,
			BaselineOK:      e.Baseline().OK,
		}
		points := e.EvaluateMany(cells)
		best, bestSpeedup := "", 0.0
		for i, p := range points {
			s := e.Speedup(p)
			row.Cells = append(row.Cells, WorkloadCell{Label: labels[i], Speedup: s, OK: p.OK})
			if p.OK && s > bestSpeedup {
				best, bestSpeedup = labels[i], s
			}
		}
		row.Best = best
		return outcome{row: row}
	})
	res := &WorkloadsResult{SuiteLoops: n}
	for _, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		res.Rows = append(res.Rows, o.row)
	}
	return res, nil
}

func (*WorkloadsResult) ID() string { return "workloads" }
func (*WorkloadsResult) Title() string {
	return "Cross-workload sensitivity: speed-up of the peak-8 quartet per scenario"
}

// Row returns a scenario's row, or nil.
func (r *WorkloadsResult) Row(name string) *WorkloadRow {
	for i := range r.Rows {
		if r.Rows[i].Name == name {
			return &r.Rows[i]
		}
	}
	return nil
}

// Speedup returns a scenario's speed-up at a headline label.
func (r *WorkloadsResult) Speedup(name, label string) (float64, bool) {
	row := r.Row(name)
	if row == nil {
		return 0, false
	}
	for _, c := range row.Cells {
		if c.Label == label && c.OK {
			return c.Speedup, true
		}
	}
	return 0, false
}

// Table returns the flat sensitivity rows for CSV export.
func (r *WorkloadsResult) Table() [][]string {
	head := []string{"workload", "loops", "ops", "compactable", "recurrent", "baseline_ok"}
	head = append(head, HeadlineLabels()...)
	head = append(head, "best")
	rows := [][]string{head}
	for _, row := range r.Rows {
		cols := []string{
			row.Name,
			fmt.Sprint(row.Loops),
			fmt.Sprint(row.Ops),
			fmt.Sprintf("%.2f", row.CompactableFrac),
			fmt.Sprintf("%.2f", row.RecurrentFrac),
			fmt.Sprint(row.BaselineOK),
		}
		for _, c := range row.Cells {
			cols = append(cols, workloadCell(c))
		}
		cols = append(cols, row.Best)
		rows = append(rows, cols)
	}
	return rows
}

// workloadCell renders one sensitivity cell ("%.2f", "!"-marked when the
// point's suite did not fully pipeline).
func workloadCell(c WorkloadCell) string {
	if !c.OK {
		return fmt.Sprintf("%.2f!", c.Speedup)
	}
	return fmt.Sprintf("%.2f", c.Speedup)
}

func (r *WorkloadsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "speed-up over each scenario's own 1w1(32:1) baseline; generated scenarios at %d loops\n", r.SuiteLoops)
	b.WriteString("(! marks points whose suite did not fully pipeline; speed-ups then lean on the flat-schedule fallback)\n\n")
	head := []string{"workload", "loops", "compact", "recur", "base"}
	head = append(head, HeadlineLabels()...)
	head = append(head, "best")
	rows := [][]string{head}
	for _, row := range r.Rows {
		base := "ok"
		if !row.BaselineOK {
			base = "spills!"
		}
		cols := []string{
			row.Name,
			fmt.Sprint(row.Loops),
			fmt.Sprintf("%.2f", row.CompactableFrac),
			fmt.Sprintf("%.2f", row.RecurrentFrac),
			base,
		}
		for _, c := range row.Cells {
			cols = append(cols, workloadCell(c))
		}
		cols = append(cols, row.Best)
		rows = append(rows, cols)
	}
	b.WriteString(textplot.Table(rows))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %s\n", row.Name, row.Description)
	}
	return b.String()
}
