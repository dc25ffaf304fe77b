package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified). It returns 0
// for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// reservoir keeps a uniform random sample of the values added to it, at
// most its capacity (Algorithm R). A long measurement then holds a fixed
// amount of memory, which keeps it out of the peak resident set.
type reservoir struct {
	rng  *rand.Rand
	seen int
	keep []float64
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed)), keep: make([]float64, 0, size)}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.keep) < cap(r.keep) {
		r.keep = append(r.keep, v)
	} else if i := r.rng.Intn(r.seen); i < len(r.keep) {
		r.keep[i] = v
	}
}

// ms, us and sec convert a duration to float units.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// rtSnap is a snapshot of the runtime's cumulative allocation and CPU
// counters (runtime/metrics); differences between two snapshots measure the
// work in between.
type rtSnap struct {
	allocBytes, allocObjects uint64
	gcCPU, idleCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return rtSnap{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCPU:        samples[2].Value.Float64(),
		idleCPU:      samples[3].Value.Float64(),
		totalCPU:     samples[4].Value.Float64(),
	}
}

// allocMB returns the megabytes (10^6 bytes) allocated since s.
func (s rtSnap) allocMB() float64 {
	return float64(readRuntime().allocBytes-s.allocBytes) / 1e6
}

// gcFrac returns the share of the CPU time used since s that went to the
// garbage collector.
func (s rtSnap) gcFrac() float64 {
	now := readRuntime()
	used := (now.totalCPU - s.totalCPU) - (now.idleCPU - s.idleCPU)
	if used <= 0 {
		return 0
	}
	return (now.gcCPU - s.gcCPU) / used
}

// peakRSSMB returns the process's peak resident set (VmHWM) in megabytes.
// Where /proc is unavailable it falls back to the runtime's own view of
// the memory it has mapped.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
