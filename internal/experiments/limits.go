package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/textplot"
)

// ------------------------------------------------------------------ fig 2

// Fig2Row is one configuration's ILP-limit speed-up.
type Fig2Row struct {
	Config  machine.Config
	Speedup float64
}

// Fig2Result reproduces the peak-ILP study: perfect scheduling, infinite
// registers, 4-cycles model, baseline 1w1.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 sweeps every power-of-two configuration up to factor 128, as one
// concurrent batch.
func Fig2(e *perfcost.Engine) (*Fig2Result, error) {
	configs := machine.ConfigsUpToFactor(128)
	speedups := e.PeakSpeedups(configs)
	res := &Fig2Result{}
	for i, c := range configs {
		res.Rows = append(res.Rows, Fig2Row{Config: c, Speedup: speedups[i]})
	}
	return res, nil
}

func (*Fig2Result) ID() string { return "fig2" }
func (*Fig2Result) Title() string {
	return "Figure 2: speed-up limits of replication and widening (infinite RF)"
}

// Table returns the flat (config, factor, speed-up) rows for CSV export.
func (r *Fig2Result) Table() [][]string {
	rows := [][]string{{"config", "factor", "speedup"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config.String(),
			fmt.Sprint(row.Config.Factor()),
			fmt.Sprintf("%.4f", row.Speedup),
		})
	}
	return rows
}

// Speedup returns the speed-up of a configuration, or 0 if absent.
func (r *Fig2Result) Speedup(c machine.Config) float64 {
	for _, row := range r.Rows {
		if row.Config == c {
			return row.Speedup
		}
	}
	return 0
}

func (r *Fig2Result) Render() string {
	var b strings.Builder
	byFactor := map[int][]Fig2Row{}
	var factors []int
	for _, row := range r.Rows {
		f := row.Config.Factor()
		if byFactor[f] == nil {
			factors = append(factors, f)
		}
		byFactor[f] = append(byFactor[f], row)
	}
	sort.Ints(factors)
	rows := [][]string{{"factor", "configs (speed-up)"}}
	for _, f := range factors {
		var cells []string
		for _, row := range byFactor[f] {
			cells = append(cells, fmt.Sprintf("%s=%.2f", row.Config, row.Speedup))
		}
		rows = append(rows, []string{fmt.Sprintf("x%d", f), strings.Join(cells, "  ")})
	}
	b.WriteString(textplot.Table(rows))

	// The two saturation curves of the paper's plots.
	b.WriteString("\nreplication-only curve (Xw1):\n")
	var bars []textplot.Bar
	for _, row := range r.Rows {
		if row.Config.Width == 1 {
			bars = append(bars, textplot.Bar{Label: row.Config.String(), Value: row.Speedup})
		}
	}
	b.WriteString(textplot.HBar(bars, 40))
	b.WriteString("\nwidening-only curve (1wY):\n")
	bars = bars[:0]
	for _, row := range r.Rows {
		if row.Config.Buses == 1 {
			bars = append(bars, textplot.Bar{Label: row.Config.String(), Value: row.Speedup})
		}
	}
	b.WriteString(textplot.HBar(bars, 40))
	return b.String()
}

// ------------------------------------------------------------------ fig 3

// Fig3Result reproduces the spill study: finite register files, 4-cycles
// model, real schedules with spill code; baseline 1w1 with 256 registers.
type Fig3Result struct {
	Rows []perfcost.SpillRow
}

// Fig3 evaluates the paper's nine configurations across the four register
// file sizes.
func Fig3(e *perfcost.Engine) (*Fig3Result, error) {
	var configs []machine.Config
	for _, s := range []string{"2w1", "1w2", "4w1", "2w2", "1w4", "8w1", "4w2", "2w4", "1w8"} {
		c, err := machine.ParseConfig(s)
		if err != nil {
			return nil, err
		}
		configs = append(configs, c)
	}
	return &Fig3Result{Rows: e.SpillStudy(configs)}, nil
}

func (*Fig3Result) ID() string { return "fig3" }
func (*Fig3Result) Title() string {
	return "Figure 3: speed-up with spill code (baseline 1w1 256-RF)"
}

// Speedup returns the (config, regs) speed-up and whether it scheduled.
func (r *Fig3Result) Speedup(cfg string, regs int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Config.String() == cfg {
			s, ok := row.Speedup[regs]
			return s, ok
		}
	}
	return 0, false
}

// Table returns the speed-up matrix rows ("-" marks unschedulable cells).
func (r *Fig3Result) Table() [][]string {
	rows := [][]string{{"config", "32-RF", "64-RF", "128-RF", "256-RF"}}
	for _, row := range r.Rows {
		cells := []string{row.Config.String()}
		for _, regs := range machine.RegFileSizes {
			if s, ok := row.Speedup[regs]; ok {
				cells = append(cells, fmt.Sprintf("%.2f", s))
			} else {
				cells = append(cells, "-")
			}
		}
		rows = append(rows, cells)
	}
	return rows
}

func (r *Fig3Result) Render() string {
	return textplot.Table(r.Table()) + "(- = unschedulable within the register file)\n"
}
