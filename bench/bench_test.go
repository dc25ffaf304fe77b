package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "store the smoke-size digests in testdata/digests.json")

// TestSmoke runs every workload at smoke-test size (8 loops, one
// repetition, 1 s load steps), untraced and traced, and checks what a run
// prints against BENCHMARK.json: every metric by name with its unit, a
// correct result line with no failed operation, verified digests, and
// well-formed spans.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not run", wl.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				tmp := t.TempDir()
				cfg := config{workload: name, seed: 1, seconds: 1, trace: traced, small: true,
					tmp: tmp, spans: filepath.Join(tmp, "spans.json"),
					update: *update, digests: "testdata/digests.json"}
				o, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				res := report(&out, cfg, o)
				checkPrinted(t, spec, traced, out.String(), res)
				if len(o.problems) > 0 || o.failed != 0 || o.attempted < 1 {
					t.Errorf("problems %q, %d of %d operations failed", o.problems, o.failed, o.attempted)
				}
				if (name == "fig3-spill" || name == "fig9-wide") && !cfg.update {
					if !strings.Contains(strings.Join(o.notes, "\n"), "verified") {
						t.Errorf("digest not verified: %q", o.notes)
					}
				}
				if traced {
					checkSpanFile(t, cfg.spans)
					if cov := o.metrics["trace.coverage"]; (name == "fig3-spill" || name == "fig9-wide") && cov < 0.9 {
						t.Errorf("trace.coverage %.3f < 0.9", cov)
					}
				}
			})
		}
	}
}

// benchmarkJSON is BENCHMARK.json with the per-layer list.
type benchmarkJSON struct {
	benchSpec
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkPrinted checks the run's output: one "name value unit" line per
// metric BENCHMARK.json names for the run's kind, and a last line holding
// exactly the result object. Untraced metrics must not be 0.
func checkPrinted(t *testing.T, spec benchmarkJSON, traced bool, out string, res result) {
	t.Helper()
	type want struct{ name, unit string }
	var wants []want
	if traced {
		for _, m := range spec.PerLayer {
			wants = append(wants, want{m.Name, m.Unit})
		}
	} else {
		for _, m := range spec.EndToEnd {
			wants = append(wants, want{m.Name, m.Unit})
		}
	}
	printed := map[string][2]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	var last string
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 {
			printed[f[0]] = [2]string{f[1], f[2]}
		}
	}
	for _, w := range wants {
		p, ok := printed[w.name]
		if !ok || p[1] != w.unit {
			t.Errorf("metric %s: printed %q, want unit %s", w.name, p, w.unit)
			continue
		}
		v, err := strconv.ParseFloat(p[0], 64)
		if err != nil || (!traced && v <= 0) {
			t.Errorf("metric %s = %q, want a number above 0", w.name, p[0])
		}
		if m := res.Metrics[w.name]; m.Unit != w.unit {
			t.Errorf("result line: metric %s has unit %q, want %s", w.name, m.Unit, w.unit)
		}
	}
	if len(res.Metrics) != len(wants) {
		t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(wants))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(keys) != 4 || !res.Correct {
		t.Errorf("last line %s: want exactly correct, attempted, failed and metrics, and correct", last)
	}
}

// checkSpanFile checks that the traced run wrote well-formed spans: every
// parent exists, no span ends before it starts, no self time is negative.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans written")
	}
	if err := checkSpans(doc.Spans); err != nil {
		t.Error(err)
	}
}

// TestOpenLoopCountsStalls is the coordinated-omission check: a server
// that stalls once for 1 ms must show the stall in the latency of every
// request that fell due during it, because latency runs from the due time,
// not from when the request could be sent.
func TestOpenLoopCountsStalls(t *testing.T) {
	const rate = 10000.0
	offsets := arrivals(rand.New(rand.NewSource(1)), rate, 100*time.Millisecond)
	stallAt := len(offsets) / 2
	dues := make([]time.Time, len(offsets))
	var mu sync.Mutex
	var stallStart, stallEnd time.Time
	st := openLoop(offsets, rate, func(_, i int, due time.Time) bool {
		dues[i] = due
		mu.Lock() // one server: a stall holds every request
		defer mu.Unlock()
		if i == stallAt {
			stallStart = time.Now()
			time.Sleep(time.Millisecond)
			stallEnd = time.Now()
		}
		return true
	})
	behind := 0
	for i, due := range dues {
		if i == stallAt || !due.After(stallStart) || !due.Before(stallEnd) {
			continue
		}
		behind++
		if wait := ms(stallEnd.Sub(due)); st.latMS[i] < wait {
			t.Errorf("request %d fell due %.3f ms before the stall ended but measured %.3f ms", i, wait, st.latMS[i])
		}
	}
	if behind == 0 {
		t.Fatal("no request fell due during the stall")
	}
	if st.errors != 0 || len(st.latMS) != len(offsets) {
		t.Errorf("%d errors, %d latencies for %d requests", st.errors, len(st.latMS), len(offsets))
	}
}

// TestSelfTimes pins the self-time rule: a span's duration minus the
// union of its children's intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
	}
	self := selfTimes(spans)
	if got := self[1]; got != 40 {
		t.Errorf("root self = %d, want 40 (100 minus 10..60 and 90..100)", got)
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	if err := checkSpans(append(spans, span{ID: 5, Parent: 9, Name: "orphan"})); err == nil {
		t.Error("a span with a missing parent passed the check")
	}
}

// TestReservoir checks that the sample keeps every value until it is full,
// then stays at its size with a median close to the stream's.
func TestReservoir(t *testing.T) {
	r := newReservoir(1000, 1)
	for i := range 500 {
		r.add(float64(i))
	}
	if len(r.keep) != 500 || r.keep[499] != 499 {
		t.Fatalf("below capacity: kept %d values, want all 500 in order", len(r.keep))
	}
	for i := 500; i < 100000; i++ {
		r.add(float64(i))
	}
	if len(r.keep) != 1000 {
		t.Fatalf("kept %d values, want 1000", len(r.keep))
	}
	if m := median(r.keep); m < 45000 || m > 55000 {
		t.Errorf("sample median %.0f, want about 50000", m)
	}
}

// TestVerdict pins the comparison rule on constructed runs.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{shift(1), false, "same"},
		{shift(1.2), false, "worse"},
		{shift(0.8), false, "better"},
		{shift(1.2), true, "better"},
		{noisy, false, "unresolved"},
	} {
		if v, _, _ := verdict(base, c.b, c.higher, 0.1); v != c.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", c.b, c.higher, v, c.want)
		}
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25 as Python's statistics.quantiles", q1, q3)
	}
}

// checkSpans reports the first malformed span: a parent that does not
// exist, an end before its start, or a negative self time.
func checkSpans(spans []span) error {
	ids := make(map[int64]bool, len(spans))
	for _, s := range spans {
		if ids[s.ID] {
			return fmt.Errorf("span %d (%s): duplicate id", s.ID, s.Name)
		}
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			return fmt.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s): ends before it starts", s.ID, s.Name)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d: negative self time %v", id, d)
		}
	}
	return nil
}
