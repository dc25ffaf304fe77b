// Package textplot renders simple ASCII tables, bar charts and scatter
// plots for the experiment drivers' terminal output.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Table renders rows of cells with aligned columns. The first row is the
// header, separated by a rule. Column widths are measured in bytes while
// %-*s pads in runes, so a column holding multi-byte runes (λ²) pads
// wider than its visible text; the artifacts' bytes depend on that.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	cols := 0
	for _, r := range rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(rows[0])
	total := 0
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(cols-1)))
	b.WriteByte('\n')
	for _, r := range rows[1:] {
		writeRow(r)
	}
	return b.String()
}

// Bar is one labelled quantity of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// HBar renders horizontal bars scaled to the maximum value, annotated with
// the numeric value.
func HBar(bars []Bar, width int) string {
	if width < 8 {
		width = 8
	}
	max := 0.0
	labelW := 0
	for _, b := range bars {
		if b.Value > max {
			max = b.Value
		}
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	var sb strings.Builder
	for _, b := range bars {
		n := 0
		if max > 0 {
			n = int(math.Round(b.Value / max * float64(width)))
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&sb, "%-*s |%s%s %.2f\n",
			labelW, b.Label, strings.Repeat("#", n), strings.Repeat(" ", width-n), b.Value)
	}
	return sb.String()
}

// Point is one labelled point of a scatter plot.
type Point struct {
	Label string
	X, Y  float64
}

// Scatter renders labelled points on a w x h character grid, with a legend
// mapping single-character markers to labels. X grows rightward, Y upward.
func Scatter(points []Point, w, h int, xLabel, yLabel string) string {
	if len(points) == 0 {
		return "(no points)\n"
	}
	if w < 16 {
		w = 16
	}
	if h < 8 {
		h = 8
	}
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	markers := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	var legend strings.Builder
	for i, p := range points {
		mk := byte('*')
		if i < len(markers) {
			mk = markers[i]
			fmt.Fprintf(&legend, "  %c = %s (%.3g, %.3g)\n", mk, p.Label, p.X, p.Y)
		}
		col := int((p.X - minX) / (maxX - minX) * float64(w-1))
		row := h - 1 - int((p.Y-minY)/(maxY-minY)*float64(h-1))
		grid[row][col] = mk
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (y: %.3g..%.3g)\n", yLabel, minY, maxY)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("+" + strings.Repeat("-", w) + "\n")
	fmt.Fprintf(&b, " %s (x: %.3g..%.3g)\n", xLabel, minX, maxX)
	b.WriteString(legend.String())
	return b.String()
}
