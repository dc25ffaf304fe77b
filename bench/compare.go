package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json a comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &spec)
	}
	if err != nil {
		return spec, fmt.Errorf("benchmark definition: %w", err)
	}
	return spec, nil
}

// readRecords returns a -record file's untraced runs by workload, in file
// order.
func readRecords(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// side summarizes one commit's runs of one metric.
type side struct {
	med, q1, q3 float64
}

func summarize(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{med: median(xs), q1: q1, q3: q3}
}

func (s side) spread() float64 { return (s.q3 - s.q1) / math.Abs(s.med) }

// verdict applies the benchmark's rule to one metric on one workload:
//   - "unresolved" when either side's quartile spread, as a share of its
//     median, is wider than the bound, unless every run of b reads better
//     than every run of a;
//   - "worse" when b's median is worse than a's by more than the bound;
//   - "better" when b wins at least nine tenths of the pairs (ties count
//     for neither) and the medians differ by more than a's quartile spread;
//   - "same" otherwise.
//
// won counts the pairs (a[i], b[i]) in which b reads better.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (v string, won, pairs int) {
	better := func(x, y float64) bool { // x reads better than y
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	sa, sb := summarize(a), summarize(b)
	worse := (sb.med - sa.med) / math.Abs(sa.med)
	if higherIsBetter {
		worse = -worse
	}
	pairs = min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			won++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case max(sa.spread(), sb.spread()) > bound && !allBetter:
		return "unresolved", won, pairs
	case worse > bound:
		return "worse", won, pairs
	case worse < 0 && 10*won >= 9*pairs && math.Abs(sb.med-sa.med) > sa.q3-sa.q1:
		return "better", won, pairs
	}
	return "same", won, pairs
}

// compareFiles compares the untraced runs of two -record files, a the
// parent and b the change, and prints one row per workload followed by one
// line per metric. It reports whether any metric came out worse.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-15s runs %d vs %d: not compared\n", wl.Name, len(ra), len(rb))
			continue
		}
		var row, lines []string
		for _, m := range spec.EndToEnd {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			v, won, pairs := verdict(xa, xb, m.Better == "higher", m.Bound)
			anyWorse = anyWorse || v == "worse"
			sa, sb := summarize(xa), summarize(xb)
			row = append(row, fmt.Sprintf("%s %+.1f%% %s", m.Name, 100*(sb.med-sa.med)/math.Abs(sa.med), v))
			lines = append(lines, fmt.Sprintf("  %-18s %s: %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g]; spread %.1f%% / %.1f%%, b won %d of %d pairs, bound %.0f%%",
				m.Name, m.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3, 100*sa.spread(), 100*sb.spread(), won, pairs, 100*m.Bound))
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		failV := "same"
		if fb > fa {
			failV, anyWorse = "worse", true
		}
		row = append(row, fmt.Sprintf("failed_frac %.3g -> %.3g %s", fa, fb, failV))
		fmt.Fprintf(w, "%-15s runs %d vs %d | %s\n", wl.Name, len(ra), len(rb), strings.Join(row, " | "))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}
	return anyWorse, nil
}

func values(rs []runRecord, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// failedFrac is failed operations over attempted ones across the runs;
// an incorrect run counts as one more failure.
func failedFrac(rs []runRecord) float64 {
	var failed, attempted int64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
		if !r.Correct && r.Failed == 0 {
			failed++
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}
