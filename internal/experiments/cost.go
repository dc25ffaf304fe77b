package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/area"
	"repro/internal/codesize"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/textplot"
	"repro/internal/timing"
)

// ---------------------------------------------------------------- table 1

// Table1Result reproduces the SIA prediction table.
type Table1Result struct {
	Rows []area.Technology
}

// Table1 returns the SIA technology table (constants of the model).
func Table1() (*Table1Result, error) {
	return &Table1Result{Rows: area.SIA()}, nil
}

func (*Table1Result) ID() string    { return "table1" }
func (*Table1Result) Title() string { return "Table 1: SIA predictions (1994 roadmap)" }

// Table returns the header plus data rows (the rows the render draws).
func (r *Table1Result) Table() [][]string {
	rows := [][]string{{"year", "lambda (um)", "die (mm2)", "lambda^2/chip (x1e6)"}}
	for _, t := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(t.Year),
			fmt.Sprintf("%.2f", t.Lambda),
			fmt.Sprint(t.DieMM2),
			fmt.Sprintf("%.0f", t.ChipLambda2/1e6),
		})
	}
	return rows
}

func (r *Table1Result) Render() string { return textplot.Table(r.Table()) }

// ---------------------------------------------------------------- table 2

// Table2Row compares one register cell against the paper.
type Table2Row struct {
	Reads, Writes    int
	Width, Height    int     // model dimensions (λ)
	PaperW, PaperH   int     // published dimensions
	RelArea          float64 // model area relative to 1R1W
	PaperRelArea     float64
	DeviationPercent float64 // area deviation vs paper
}

// Table2Result reproduces the register cell dimension table.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 compares the cell model with the paper's published cells.
func Table2() (*Table2Result, error) {
	paper := []struct {
		r, w, pw, ph int
		rel          float64
	}{
		{1, 1, 50, 41, 1},
		{2, 1, 64, 41, 1.28},
		{5, 3, 162, 81, 6.4},
		{10, 6, 316, 145, 22.35},
		{20, 12, 568, 257, 71.21},
	}
	base := float64(area.CellArea(1, 1))
	res := &Table2Result{}
	for _, p := range paper {
		w, h := area.CellDims(p.r, p.w)
		modelArea := float64(w * h)
		paperArea := float64(p.pw * p.ph)
		res.Rows = append(res.Rows, Table2Row{
			Reads: p.r, Writes: p.w,
			Width: w, Height: h,
			PaperW: p.pw, PaperH: p.ph,
			RelArea:          modelArea / base,
			PaperRelArea:     p.rel,
			DeviationPercent: 100 * (modelArea - paperArea) / paperArea,
		})
	}
	return res, nil
}

func (*Table2Result) ID() string    { return "table2" }
func (*Table2Result) Title() string { return "Table 2: multiported register cell dimensions" }

// Table returns the header plus data rows (the rows the render draws).
func (r *Table2Result) Table() [][]string {
	rows := [][]string{{"ports", "model WxH", "paper WxH", "rel area", "paper rel", "area dev"}}
	for _, c := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%dR,%dW", c.Reads, c.Writes),
			fmt.Sprintf("%dx%d", c.Width, c.Height),
			fmt.Sprintf("%dx%d", c.PaperW, c.PaperH),
			fmt.Sprintf("%.2f", c.RelArea),
			fmt.Sprintf("%.2f", c.PaperRelArea),
			fmt.Sprintf("%+.1f%%", c.DeviationPercent),
		})
	}
	return rows
}

func (r *Table2Result) Render() string { return textplot.Table(r.Table()) }

// ---------------------------------------------------------------- table 3

// Table3Row is one configuration's register file cost.
type Table3Row struct {
	Config       machine.Config
	Reads        int
	Writes       int
	CellArea     int
	BitsPerReg   int
	TotalRF      float64 // λ²
	PaperTotalE6 float64 // the paper's value in 1e6 λ²
}

// Table3Result reproduces the equal-factor RF area comparison (64-RF).
type Table3Result struct {
	Rows []Table3Row
}

// Table3 prices the register files of 4w1, 2w2 and 1w4 with 64 registers.
func Table3() (*Table3Result, error) {
	paper := map[string]float64{"4w1": 598, "2w2": 375, "1w4": 215}
	res := &Table3Result{}
	for _, s := range []string{"4w1", "2w2", "1w4"} {
		c, err := machine.ParseConfig(s)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table3Row{
			Config:       c,
			Reads:        c.ReadPorts(),
			Writes:       c.WritePorts(),
			CellArea:     area.CellArea(c.ReadPorts(), c.WritePorts()),
			BitsPerReg:   machine.WordBits * c.Width,
			TotalRF:      area.RFArea(c, 64, 1),
			PaperTotalE6: paper[s],
		})
	}
	return res, nil
}

func (*Table3Result) ID() string    { return "table3" }
func (*Table3Result) Title() string { return "Table 3: register file area, 64 registers" }

// Table returns the header plus data rows (the rows the render draws).
func (r *Table3Result) Table() [][]string {
	rows := [][]string{{"config", "ports", "cell (λ²)", "bits/reg", "RF area (1e6 λ²)", "paper"}}
	for _, c := range r.Rows {
		rows = append(rows, []string{
			c.Config.String(),
			fmt.Sprintf("%dR+%dW", c.Reads, c.Writes),
			fmt.Sprint(c.CellArea),
			fmt.Sprint(c.BitsPerReg),
			fmt.Sprintf("%.0f", c.TotalRF/1e6),
			fmt.Sprintf("%.0f", c.PaperTotalE6),
		})
	}
	return rows
}

func (r *Table3Result) Render() string { return textplot.Table(r.Table()) }

// ---------------------------------------------------------------- table 4

// Table4Result compares the fitted access-time model with the paper.
type Table4Result struct {
	Model   timing.Model
	Entries []timing.Table4Entry
	// ModelRel holds the model's relative time per entry (same order).
	ModelRel []float64
	MeanErr  float64
	MaxErr   float64
}

// Table4 evaluates the fitted model against the paper's 60 data points.
func Table4() (*Table4Result, error) {
	res := &Table4Result{Model: timing.Default, Entries: timing.PaperTable4()}
	for _, e := range res.Entries {
		got := res.Model.Relative(e.Config, e.Regs, 1)
		res.ModelRel = append(res.ModelRel, got)
		err := math.Abs(got-e.Rel) / e.Rel
		res.MeanErr += err
		if err > res.MaxErr {
			res.MaxErr = err
		}
	}
	res.MeanErr /= float64(len(res.Entries))
	return res, nil
}

func (*Table4Result) ID() string    { return "table4" }
func (*Table4Result) Title() string { return "Table 4: relative RF access time (baseline 1w1 32-RF)" }

// Table returns the header plus data rows (the rows the render draws).
func (r *Table4Result) Table() [][]string {
	rows := [][]string{{"config", "RF", "model", "paper", "err"}}
	for i, e := range r.Entries {
		rows = append(rows, []string{
			e.Config.String(),
			fmt.Sprint(e.Regs),
			fmt.Sprintf("%.2f", r.ModelRel[i]),
			fmt.Sprintf("%.2f", e.Rel),
			fmt.Sprintf("%+.1f%%", 100*(r.ModelRel[i]-e.Rel)/e.Rel),
		})
	}
	return rows
}

func (r *Table4Result) Render() string {
	return textplot.Table(r.Table()) +
		fmt.Sprintf("fit: mean abs err %.1f%%, max %.1f%%\n", 100*r.MeanErr, 100*r.MaxErr)
}

// ---------------------------------------------------------------- table 5

// Table5Cell is one (config, RF, partition) implementability entry.
type Table5Cell struct {
	Config     machine.Config
	Regs       int
	Partitions int
	// Lambda is the earliest feature size that fits, or 0 when none does.
	Lambda float64
}

// Table5Result reproduces the implementability matrix.
type Table5Result struct {
	Budget float64
	Cells  []Table5Cell
}

// Table5 computes the earliest implementable technology for every design
// point up to factor 16 under the paper's 20% budget.
func Table5() (*Table5Result, error) {
	res := &Table5Result{Budget: area.DefaultBudget}
	configs := machine.ConfigsUpToFactor(16)
	total := 0
	partsOf := make([][]int, len(configs))
	for i, c := range configs {
		partsOf[i] = c.ValidPartitions()
		total += len(partsOf[i]) * len(machine.RegFileSizes)
	}
	res.Cells = make([]Table5Cell, 0, total)
	for i, c := range configs {
		for _, regs := range machine.RegFileSizes {
			for _, parts := range partsOf[i] {
				cell := Table5Cell{Config: c, Regs: regs, Partitions: parts}
				if t, ok := area.FirstImplementable(c, regs, parts, res.Budget); ok {
					cell.Lambda = t.Lambda
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res, nil
}

func (*Table5Result) ID() string    { return "table5" }
func (*Table5Result) Title() string { return "Table 5: implementable configurations (20% budget)" }

// Table returns the header plus data rows (the rows the render draws).
func (r *Table5Result) Table() [][]string {
	rows := [][]string{{"config", "RF", "partitions", "earliest tech"}}
	for _, c := range r.Cells {
		tech := "never"
		if c.Lambda > 0 {
			tech = fmt.Sprintf("%.2fum", c.Lambda)
		}
		rows = append(rows, []string{
			c.Config.String(),
			fmt.Sprint(c.Regs),
			fmt.Sprint(c.Partitions),
			tech,
		})
	}
	return rows
}

func (r *Table5Result) Render() string { return textplot.Table(r.Table()) }

// ---------------------------------------------------------------- table 6

// Table6Result reproduces the cycle model table.
type Table6Result struct {
	Models []machine.CycleModel
}

// Table6 returns the four FPU latency models.
func Table6() (*Table6Result, error) {
	return &Table6Result{Models: machine.CycleModels()}, nil
}

func (*Table6Result) ID() string    { return "table6" }
func (*Table6Result) Title() string { return "Table 6: cycles per operation per cycle model" }

// Table returns the header plus data rows (the rows the render draws).
func (r *Table6Result) Table() [][]string {
	rows := [][]string{{"model", "store", "+,*,load", "div", "sqrt"}}
	for _, m := range r.Models {
		rows = append(rows, []string{
			m.String(),
			fmt.Sprint(m.StoreLat),
			fmt.Sprint(m.ArithLat),
			fmt.Sprint(m.DivLat),
			fmt.Sprint(m.SqrtLat),
		})
	}
	return rows
}

func (r *Table6Result) Render() string {
	return textplot.Table(r.Table()) + "div and sqrt are not pipelined; the rest are fully pipelined\n"
}

// ------------------------------------------------------------------ fig 4

// Fig4Row is one configuration's area against the technology bands.
type Fig4Row struct {
	Config machine.Config
	Regs   int
	Area   float64 // λ², unpartitioned
}

// Fig4Result reproduces the area-cost chart.
type Fig4Result struct {
	Rows []Fig4Row
	// Bands maps each technology to its 10% and 20% budget lines (λ²).
	Bands map[string][2]float64
}

// Fig4 prices every configuration x register file size (factor <= 16).
func Fig4() (*Fig4Result, error) {
	res := &Fig4Result{Bands: map[string][2]float64{}}
	for _, c := range machine.ConfigsUpToFactor(16) {
		for _, regs := range machine.RegFileSizes {
			res.Rows = append(res.Rows, Fig4Row{Config: c, Regs: regs, Area: area.Total(c, regs, 1)})
		}
	}
	for _, t := range area.SIA() {
		res.Bands[t.String()] = [2]float64{0.10 * t.ChipLambda2, 0.20 * t.ChipLambda2}
	}
	return res, nil
}

func (*Fig4Result) ID() string    { return "fig4" }
func (*Fig4Result) Title() string { return "Figure 4: area cost (register file plus FPUs)" }

// Table returns the per-configuration area matrix (the rows the render
// draws).
func (r *Fig4Result) Table() [][]string {
	rows := [][]string{{"config", "32-RF", "64-RF", "128-RF", "256-RF (1e6 λ²)"}}
	byCfg := map[machine.Config]map[int]float64{}
	var order []machine.Config
	for _, row := range r.Rows {
		if byCfg[row.Config] == nil {
			byCfg[row.Config] = map[int]float64{}
			order = append(order, row.Config)
		}
		byCfg[row.Config][row.Regs] = row.Area
	}
	for _, k := range order {
		rows = append(rows, []string{
			k.String(),
			fmt.Sprintf("%.0f", byCfg[k][32]/1e6),
			fmt.Sprintf("%.0f", byCfg[k][64]/1e6),
			fmt.Sprintf("%.0f", byCfg[k][128]/1e6),
			fmt.Sprintf("%.0f", byCfg[k][256]/1e6),
		})
	}
	return rows
}

func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString(textplot.Table(r.Table()))
	b.WriteString("technology bands (10%..20% of die, 1e6 λ²):\n")
	for _, t := range area.SIA() {
		band := r.Bands[t.String()]
		fmt.Fprintf(&b, "  %s: %.0f .. %.0f\n", t, band[0]/1e6, band[1]/1e6)
	}
	return b.String()
}

// ------------------------------------------------------------------ fig 6

// Fig6Row is one partitioning of the 8w1 64-RF register file.
type Fig6Row struct {
	Partitions   int
	RelativeArea float64
	RelativeTime float64
}

// Fig6Result reproduces the partitioning trade-off.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 evaluates the 8w1 64-RF file at 1, 2, 4 and 8 blocks.
func Fig6() (*Fig6Result, error) {
	c, err := machine.ParseConfig("8w1")
	if err != nil {
		return nil, err
	}
	baseArea := area.RFArea(c, 64, 1)
	baseTime := timing.Default.ConfigTime(c, 64, 1)
	res := &Fig6Result{}
	for _, n := range []int{1, 2, 4, 8} {
		res.Rows = append(res.Rows, Fig6Row{
			Partitions:   n,
			RelativeArea: area.RFArea(c, 64, n) / baseArea,
			RelativeTime: timing.Default.ConfigTime(c, 64, n) / baseTime,
		})
	}
	return res, nil
}

func (*Fig6Result) ID() string    { return "fig6" }
func (*Fig6Result) Title() string { return "Figure 6: 8w1 64-RF partitioning (area vs access time)" }

// Table returns the header plus data rows (the rows the render draws).
func (r *Fig6Result) Table() [][]string {
	rows := [][]string{{"blocks", "relative area", "relative access time"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Partitions),
			fmt.Sprintf("%.2f", row.RelativeArea),
			fmt.Sprintf("%.2f", row.RelativeTime),
		})
	}
	return rows
}

func (r *Fig6Result) Render() string { return textplot.Table(r.Table()) }

// ------------------------------------------------------------------ fig 7

// Fig7Result reproduces the relative code size comparison.
type Fig7Result struct {
	Rows []codesize.Row
}

// Fig7 computes per-iteration code footprints over the workbench.
func Fig7(loops []*ddg.Loop) (*Fig7Result, error) {
	var configs []machine.Config
	for _, s := range []string{"2w1", "1w2", "4w1", "2w2", "1w4", "8w1", "4w2", "2w4", "1w8"} {
		c, err := machine.ParseConfig(s)
		if err != nil {
			return nil, err
		}
		configs = append(configs, c)
	}
	return &Fig7Result{Rows: codesize.Compare(loops, configs, machine.FourCycle)}, nil
}

func (*Fig7Result) ID() string    { return "fig7" }
func (*Fig7Result) Title() string { return "Figure 7: relative code size (vs equal-factor Xw1)" }

// Table returns the per-configuration footprint rows behind the bars.
func (r *Fig7Result) Table() [][]string {
	rows := [][]string{{"config", "bits_per_iteration", "relative_size"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config.String(),
			fmt.Sprintf("%.1f", row.Bits),
			fmt.Sprintf("%.4f", row.Rel),
		})
	}
	return rows
}

func (r *Fig7Result) Render() string {
	bars := make([]textplot.Bar, 0, len(r.Rows))
	for _, row := range r.Rows {
		bars = append(bars, textplot.Bar{Label: row.Config.String(), Value: row.Rel})
	}
	return textplot.HBar(bars, 40)
}
