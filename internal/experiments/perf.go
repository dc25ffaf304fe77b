package experiments

import (
	"fmt"
	"strings"

	"repro/internal/area"
	"repro/internal/machine"
	"repro/internal/perfcost"
	"repro/internal/sweep"
	"repro/internal/textplot"
)

// ------------------------------------------------------------------ fig 8

// Fig8Panel is one of the four panels of Figure 8: a named set of design
// points with their speed-up (vs 1w1(32:1)) and area.
type Fig8Panel struct {
	Name   string
	Points []Fig8Point
}

// Fig8Point is one design point of a panel.
type Fig8Point struct {
	Point   perfcost.Point
	Speedup float64
}

// Fig8Result reproduces the four individual-effect studies of Section 5.3
// under the fixed 0.25 µm timing model.
type Fig8Result struct {
	Panels []Fig8Panel
}

// Fig8 evaluates the paper's four panels:
//
//	a) 1w1 as the register file grows;
//	b) replication only, 128 registers, maximally partitioned;
//	c) widening only, 128 registers;
//	d) the four ways to build a peak-8 machine with 128 registers.
func Fig8(e *perfcost.Engine) (*Fig8Result, error) {
	cfg := func(s string) machine.Config {
		c, err := machine.ParseConfig(s)
		if err != nil {
			panic(err)
		}
		return c
	}
	panels := []struct {
		name   string
		points []struct {
			cfg         string
			regs, parts int
		}
	}{
		{"a: 1w1, growing RF", []struct {
			cfg         string
			regs, parts int
		}{
			{"1w1", 32, 1}, {"1w1", 64, 1}, {"1w1", 128, 1}, {"1w1", 256, 1},
		}},
		{"b: replication only (128-RF)", []struct {
			cfg         string
			regs, parts int
		}{
			{"1w1", 128, 1}, {"2w1", 128, 2}, {"4w1", 128, 4}, {"8w1", 128, 8},
		}},
		{"c: widening only (128-RF)", []struct {
			cfg         string
			regs, parts int
		}{
			{"1w1", 128, 1}, {"1w2", 128, 1}, {"1w4", 128, 1}, {"1w8", 128, 1},
		}},
		{"d: equal peak 8 (128-RF)", []struct {
			cfg         string
			regs, parts int
		}{
			{"8w1", 128, 8}, {"4w2", 128, 4}, {"2w4", 128, 2}, {"1w8", 128, 1},
		}},
	}
	// Submit the four panels as one batch; the engine deduplicates the
	// cells the panels share (1w1(128:1) appears in a, b and c).
	var cells []sweep.Cell
	for _, p := range panels {
		for _, pt := range p.points {
			cells = append(cells, sweep.Cell{Config: cfg(pt.cfg), Regs: pt.regs, Partitions: pt.parts})
		}
	}
	points := e.EvaluateMany(cells)
	res := &Fig8Result{}
	i := 0
	for _, p := range panels {
		panel := Fig8Panel{Name: p.name}
		for range p.points {
			panel.Points = append(panel.Points, Fig8Point{
				Point:   points[i],
				Speedup: e.Speedup(points[i]),
			})
			i++
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

func (*Fig8Result) ID() string { return "fig8" }
func (*Fig8Result) Title() string {
	return "Figure 8: individual effects on performance/cost (0.25um timing)"
}

// Panel returns a panel by its letter prefix ("a".."d").
func (r *Fig8Result) Panel(letter string) *Fig8Panel {
	for i := range r.Panels {
		if strings.HasPrefix(r.Panels[i].Name, letter) {
			return &r.Panels[i]
		}
	}
	return nil
}

// columns returns one design point's columns, shared by the flat table and
// the per-panel render.
func (p Fig8Point) columns() []string {
	status := "ok"
	if !p.Point.OK {
		status = fmt.Sprintf("%d loops failed", p.Point.Failures)
	}
	return []string{
		p.Point.Label(),
		fmt.Sprintf("%.2f", p.Point.Tc),
		fmt.Sprint(p.Point.Z),
		fmt.Sprintf("%.2f", p.Speedup),
		fmt.Sprintf("%.0f", p.Point.Area/1e6),
		status,
	}
}

// Table returns the flat per-point rows with a leading panel column.
func (r *Fig8Result) Table() [][]string {
	rows := [][]string{{"panel", "point", "Tc", "z", "speedup", "area_1e6_lambda2", "scheduled"}}
	for _, panel := range r.Panels {
		for _, p := range panel.Points {
			rows = append(rows, append([]string{panel.Name}, p.columns()...))
		}
	}
	return rows
}

func (r *Fig8Result) Render() string {
	var b strings.Builder
	for _, panel := range r.Panels {
		fmt.Fprintf(&b, "panel %s\n", panel.Name)
		rows := [][]string{{"point", "Tc", "z", "speed-up", "area (1e6 λ²)", "scheduled"}}
		var pts []textplot.Point
		for _, p := range panel.Points {
			rows = append(rows, p.columns())
			if p.Point.OK {
				pts = append(pts, textplot.Point{
					Label: p.Point.Label(),
					X:     p.Speedup,
					Y:     p.Point.Area / 1e6,
				})
			}
		}
		b.WriteString(textplot.Table(rows))
		b.WriteString(textplot.Scatter(pts, 48, 10, "speed-up", "area (1e6 λ²)"))
		b.WriteByte('\n')
	}
	return b.String()
}

// ------------------------------------------------------------------ fig 9

// Fig9Tech is the ranking for one technology generation.
type Fig9Tech struct {
	Tech area.Technology
	Top  []Fig9Point
}

// Fig9Point is one ranked design point.
type Fig9Point struct {
	Point       perfcost.Point
	Speedup     float64
	DieFraction float64
}

// Fig9Result reproduces the top-five study across the five SIA
// generations (fixed 0.25 µm timing, as in the paper).
type Fig9Result struct {
	Techs []Fig9Tech
}

// Fig9 ranks the implementable design points of every generation. The
// five generations are swept concurrently; the finer technologies admit
// most of the coarser ones' cells, so the shared schedule cache absorbs
// the bulk of the overlap.
func Fig9(e *perfcost.Engine) (*Fig9Result, error) {
	techs := area.SIA()
	entries := sweep.Map(len(techs), techs, func(tech area.Technology) Fig9Tech {
		entry := Fig9Tech{Tech: tech}
		for _, p := range e.TopFive(tech, 16) {
			entry.Top = append(entry.Top, Fig9Point{
				Point:       p,
				Speedup:     e.Speedup(p),
				DieFraction: p.DieFraction(tech),
			})
		}
		return entry
	})
	return &Fig9Result{Techs: entries}, nil
}

func (*Fig9Result) ID() string { return "fig9" }
func (*Fig9Result) Title() string {
	return "Figure 9: top five configurations per technology (speed-up vs % die)"
}

// Top returns the ranking for a feature size, or nil.
func (r *Fig9Result) Top(lambda float64) []Fig9Point {
	for _, t := range r.Techs {
		if t.Tech.Lambda == lambda {
			return t.Top
		}
	}
	return nil
}

// columns returns one ranked point's columns, shared by the flat table and
// the per-technology render.
func (p Fig9Point) columns(rank int) []string {
	return []string{
		fmt.Sprint(rank),
		p.Point.Label(),
		fmt.Sprintf("%.2f", p.Point.Tc),
		fmt.Sprint(p.Point.Z),
		fmt.Sprintf("%.2f", p.Speedup),
		fmt.Sprintf("%.1f", 100*p.DieFraction),
	}
}

// Table returns the flat ranking rows with leading technology columns.
func (r *Fig9Result) Table() [][]string {
	rows := [][]string{{"tech", "year", "rank", "point", "Tc", "z", "speedup", "pct_die"}}
	for _, t := range r.Techs {
		for i, p := range t.Top {
			rows = append(rows, append([]string{t.Tech.String(), fmt.Sprint(t.Tech.Year)}, p.columns(i+1)...))
		}
	}
	return rows
}

func (r *Fig9Result) Render() string {
	var b strings.Builder
	for _, t := range r.Techs {
		fmt.Fprintf(&b, "technology %s (%d)\n", t.Tech, t.Tech.Year)
		rows := [][]string{{"rank", "point", "Tc", "z", "speed-up", "% die"}}
		var pts []textplot.Point
		for i, p := range t.Top {
			rows = append(rows, p.columns(i+1))
			pts = append(pts, textplot.Point{
				Label: p.Point.Label(),
				X:     p.Speedup,
				Y:     100 * p.DieFraction,
			})
		}
		b.WriteString(textplot.Table(rows))
		b.WriteString(textplot.Scatter(pts, 48, 8, "speed-up", "% die"))
		b.WriteByte('\n')
	}
	return b.String()
}
