package sched_test

// This file retains the pre-optimization scheduling path as a test-only
// reference implementation: a bool-slice modulo reservation table, an
// uncached ordering phase that recomputes every graph analysis from
// scratch, and the linear-scan placement loop. The differential test
// schedules the workbench with both paths across all widths and cycle
// models and asserts the optimized scheduler (analysis cache + bitset MRT
// + rank-bitset placement on per-operation tables) produces identical
// schedules loop for loop.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/widen"
)

// --- reference reservation table (bool rows, pre-bitset semantics) ---

type refClass int

const (
	refMem refClass = iota
	refFPU
)

type refSpan struct {
	unit, cycle, occ int
}

type refReservation struct {
	class refClass
	spans []refSpan
}

type refUnit struct {
	busy []bool
	used int
}

type refTable struct {
	ii    int
	units [2][]refUnit
}

func newRefTable(ii, buses, fpus int) *refTable {
	t := &refTable{ii: ii}
	t.units[refMem] = make([]refUnit, buses)
	t.units[refFPU] = make([]refUnit, fpus)
	for c := range t.units {
		for u := range t.units[c] {
			t.units[c][u].busy = make([]bool, ii)
		}
	}
	return t
}

func refMod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func (t *refTable) fits(c refClass, u, cycle, occ int) bool {
	rows := t.units[c][u].busy
	start := refMod(cycle, t.ii)
	for i := 0; i < occ; i++ {
		if rows[(start+i)%t.ii] {
			return false
		}
	}
	return true
}

func (t *refTable) reserve(c refClass, u, cycle, occ int) {
	rows := t.units[c][u].busy
	start := refMod(cycle, t.ii)
	for i := 0; i < occ; i++ {
		rows[(start+i)%t.ii] = true
	}
	t.units[c][u].used += occ
}

func (t *refTable) unreserve(c refClass, u, cycle, occ int) {
	rows := t.units[c][u].busy
	start := refMod(cycle, t.ii)
	for i := 0; i < occ; i++ {
		rows[(start+i)%t.ii] = false
	}
	t.units[c][u].used -= occ
}

func (t *refTable) place(c refClass, cycle, occ int) (refReservation, bool) {
	res := refReservation{class: c}
	if occ <= t.ii {
		for u := range t.units[c] {
			if t.fits(c, u, cycle, occ) {
				t.reserve(c, u, cycle, occ)
				res.spans = []refSpan{{u, cycle, occ}}
				return res, true
			}
		}
		return refReservation{}, false
	}
	full := occ / t.ii
	rem := occ % t.ii
	var spans []refSpan
	taken := make(map[int]bool)
	if rem > 0 {
		remUnit := -1
		for u := range t.units[c] {
			if t.units[c][u].used > 0 && t.fits(c, u, cycle, rem) {
				remUnit = u
				break
			}
		}
		if remUnit == -1 {
			for u := range t.units[c] {
				if t.units[c][u].used == 0 {
					remUnit = u
					break
				}
			}
		}
		if remUnit == -1 {
			return refReservation{}, false
		}
		spans = append(spans, refSpan{remUnit, cycle, rem})
		taken[remUnit] = true
	}
	want := full
	if rem > 0 {
		want++
	}
	for u := range t.units[c] {
		if len(spans) == want {
			break
		}
		if taken[u] || t.units[c][u].used != 0 {
			continue
		}
		spans = append(spans, refSpan{u, cycle, t.ii})
		taken[u] = true
	}
	if len(spans) != want {
		return refReservation{}, false
	}
	for _, s := range spans {
		t.reserve(c, s.unit, s.cycle, s.occ)
	}
	res.spans = spans
	return res, true
}

func (t *refTable) release(r refReservation) {
	for _, s := range r.spans {
		t.unreserve(r.class, s.unit, s.cycle, s.occ)
	}
}

// --- reference graph analyses (uncached, computed from scratch) ---

func refTopoZero(l *ddg.Loop) []int {
	n := len(l.Ops)
	adj := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range l.Edges {
		if e.Dist == 0 {
			adj[e.From] = append(adj[e.From], e.To)
			indeg[e.To]++
		}
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order
}

func refASAP(l *ddg.Loop, model machine.CycleModel) []int {
	asap := make([]int, len(l.Ops))
	for _, v := range refTopoZero(l) {
		for _, e := range l.Edges {
			if e.Dist != 0 || e.To != v {
				continue
			}
			if t := asap[e.From] + model.Latency(l.Ops[e.From].Kind); t > asap[v] {
				asap[v] = t
			}
		}
	}
	return asap
}

func refALAP(l *ddg.Loop, model machine.CycleModel) []int {
	asap := refASAP(l, model)
	span := 0
	for _, t := range asap {
		if t > span {
			span = t
		}
	}
	alap := make([]int, len(l.Ops))
	for i := range alap {
		alap[i] = span
	}
	order := refTopoZero(l)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, e := range l.Edges {
			if e.Dist != 0 || e.From != v {
				continue
			}
			if t := alap[e.To] - model.Latency(l.Ops[v].Kind); t < alap[v] {
				alap[v] = t
			}
		}
	}
	return alap
}

func refSCCs(l *ddg.Loop) [][]int {
	n := len(l.Ops)
	succs := make([][]int, n)
	for _, e := range l.Edges {
		succs[e.From] = append(succs[e.From], e.To)
	}
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int
		counter int
		out     [][]int
		visit   func(v int)
	)
	visit = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[v] {
			if index[w] == unvisited {
				visit(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == unvisited {
			visit(v)
		}
	}
	return out
}

// refRecMIIOfComponent binary-searches the component's recurrence bound
// with a Bellman-Ford positive-cycle test (the pre-cache implementation).
func refRecMIIOfComponent(l *ddg.Loop, comp []int, model machine.CycleModel) int {
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	type wedge struct{ from, to, lat, dist int }
	var edges []wedge
	hi := 1
	for _, e := range l.Edges {
		if inComp[e.From] && inComp[e.To] {
			lat := model.Latency(l.Ops[e.From].Kind)
			edges = append(edges, wedge{e.From, e.To, lat, e.Dist})
			hi += lat
		}
	}
	if len(edges) == 0 {
		return 1
	}
	dist := make(map[int]int, len(comp))
	feasible := func(ii int) bool {
		for _, v := range comp {
			dist[v] = 0
		}
		for pass := 0; pass < len(comp); pass++ {
			changed := false
			for _, e := range edges {
				if d := dist[e.from] + e.lat - ii*e.dist; d > dist[e.to] {
					dist[e.to] = d
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		for _, e := range edges {
			if dist[e.from]+e.lat-ii*e.dist > dist[e.to] {
				return false
			}
		}
		return true
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func refHasSelfEdge(l *ddg.Loop, v int) bool {
	for _, e := range l.Edges {
		if e.From == v && e.To == v {
			return true
		}
	}
	return false
}

func refRecMII(l *ddg.Loop, model machine.CycleModel) int {
	best := 1
	for _, comp := range refSCCs(l) {
		if len(comp) == 1 && !refHasSelfEdge(l, comp[0]) {
			continue
		}
		if m := refRecMIIOfComponent(l, comp, model); m > best {
			best = m
		}
	}
	return best
}

func refResMII(l *ddg.Loop, model machine.CycleModel, buses, fpus int) int {
	memSlots, fpuSlots := 0, 0
	for _, op := range l.Ops {
		occ := model.Occupancy(op.Kind)
		if op.Kind.IsMem() {
			memSlots += occ
		} else {
			fpuSlots += occ
		}
	}
	mii := 1
	ceil := func(a, b int) int { return (a + b - 1) / b }
	if buses > 0 && memSlots > 0 {
		if m := ceil(memSlots, buses); m > mii {
			mii = m
		}
	}
	if fpus > 0 && fpuSlots > 0 {
		if m := ceil(fpuSlots, fpus); m > mii {
			mii = m
		}
	}
	return mii
}

func refCriticalPath(l *ddg.Loop, model machine.CycleModel) int {
	best := 0
	for v, t := range refASAP(l, model) {
		if end := t + model.Latency(l.Ops[v].Kind); end > best {
			best = end
		}
	}
	return best
}

// refHRMSOrder is the pre-cache ordering phase, including the sub-loop
// construction for per-component recurrence criticality.
func refHRMSOrder(l *ddg.Loop, model machine.CycleModel) []int {
	n := len(l.Ops)
	if n == 0 {
		return nil
	}
	asap := refASAP(l, model)
	alap := refALAP(l, model)
	slack := make([]int, n)
	for v := 0; v < n; v++ {
		slack[v] = alap[v] - asap[v]
	}
	recPrio := make([]int, n)
	for _, comp := range refSCCs(l) {
		if len(comp) == 1 && !refHasSelfEdge(l, comp[0]) {
			continue
		}
		sorted := append([]int(nil), comp...)
		sort.Ints(sorted)
		sub := refRecMIIOfComponent(l, sorted, model)
		for _, v := range comp {
			recPrio[v] = sub
		}
	}
	adj := make([][]int, n)
	for _, e := range l.Edges {
		if e.From != e.To {
			adj[e.From] = append(adj[e.From], e.To)
			adj[e.To] = append(adj[e.To], e.From)
		}
	}
	occ := make([]int, n)
	for v := range occ {
		occ[v] = model.Occupancy(l.Ops[v].Kind)
	}
	better := func(a, b int) bool {
		if recPrio[a] != recPrio[b] {
			return recPrio[a] > recPrio[b]
		}
		if occ[a] != occ[b] {
			return occ[a] > occ[b]
		}
		if slack[a] != slack[b] {
			return slack[a] < slack[b]
		}
		if asap[a] != asap[b] {
			return asap[a] < asap[b]
		}
		return a < b
	}
	ordered := make([]bool, n)
	frontier := make([]bool, n)
	var order []int
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if frontier[v] && !ordered[v] && (best == -1 || better(v, best)) {
				best = v
			}
		}
		if best == -1 {
			for v := 0; v < n; v++ {
				if !ordered[v] && (best == -1 || better(v, best)) {
					best = v
				}
			}
		}
		ordered[best] = true
		order = append(order, best)
		for _, w := range adj[best] {
			if !ordered[w] {
				frontier[w] = true
			}
		}
	}
	return order
}

// TestHRMSOrderMatchesReference pins the ranked-frontier ordering against
// the reference's best-candidate scans: the same order for every loop of
// the default 1180-loop workbench (40 in -short mode) widened to each
// factor-8 width under every cycle model, and for random graphs (dense
// recurrences, non-pipelined operations, disconnected components).
func TestHRMSOrderMatchesReference(t *testing.T) {
	p := loopgen.Defaults()
	if testing.Short() {
		p.Loops = 40
	}
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	check := func(l *ddg.Loop, model machine.CycleModel, what string) {
		t.Helper()
		got, want := l.Analysis().HRMSOrder(model), refHRMSOrder(l, model)
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d ops ordered, reference %d", what, model, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %s: order %v, reference %v", what, model, got, want)
			}
		}
	}
	for _, cfg := range machine.ConfigsWithFactor(8) {
		for _, src := range loops {
			l, _ := widen.Transform(src, cfg.Width)
			for _, model := range machine.CycleModels() {
				check(l, model, src.Name+" "+cfg.String())
			}
		}
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		l := sched.RandomLoop(rng, 1+rng.Intn(40))
		check(l, machine.CycleModels()[trial%4], fmt.Sprintf("random loop %d", trial))
	}
}

// --- reference placement (linear smallest-rank scan, slice candidates) ---

func refClassOf(k machine.OpKind) refClass {
	if k.IsMem() {
		return refMem
	}
	return refFPU
}

func refTouchesUnit(r refReservation, unit, tf, occ, ii int) bool {
	for _, sp := range r.spans {
		if sp.unit != unit {
			continue
		}
		for i := 0; i < sp.occ; i++ {
			row := refMod(sp.cycle+i, ii)
			for j := 0; j < occ; j++ {
				if row == refMod(tf+j, ii) {
					return true
				}
			}
		}
	}
	return false
}

type refSchedule struct {
	ii   int
	time []int
}

func refTryPlace(l *ddg.Loop, model machine.CycleModel, buses, fpus, ii int,
	order []int, preds, succs [][]ddg.Edge, asap []int) (*refSchedule, bool) {

	n := l.NumOps()
	time := make([]int, n)
	res := make([]refReservation, n)
	placed := make([]bool, n)
	lastForced := make([]int, n)
	table := newRefTable(ii, buses, fpus)

	const inf = int(^uint(0) >> 2)
	for v := range lastForced {
		lastForced[v] = -inf
	}
	rank := make([]int, n)
	for i, v := range order {
		rank[v] = i
	}

	budget := 8*n + 64
	remaining := n
	frontier := 0
	for remaining > 0 {
		if budget--; budget < 0 {
			return nil, false
		}
		v := -1
		for u := 0; u < n; u++ {
			if !placed[u] && (v == -1 || rank[u] < rank[v]) {
				v = u
			}
		}
		op := l.Ops[v]
		occ := model.Occupancy(op.Kind)
		class := refClassOf(op.Kind)

		estart, lstart := -inf, inf
		hasPred, hasSucc := false, false
		for _, e := range preds[v] {
			if e.From == v || !placed[e.From] {
				continue
			}
			hasPred = true
			if t := time[e.From] + model.Latency(l.Ops[e.From].Kind) - ii*e.Dist; t > estart {
				estart = t
			}
		}
		for _, e := range succs[v] {
			if e.To == v || !placed[e.To] {
				continue
			}
			hasSucc = true
			if t := time[e.To] - model.Latency(op.Kind) + ii*e.Dist; t < lstart {
				lstart = t
			}
		}

		var candidates []int
		switch {
		case hasPred && !hasSucc:
			base := estart
			if fb := frontier - ii + 1; fb > base {
				base = fb
			}
			for t := base; t < base+ii; t++ {
				candidates = append(candidates, t)
			}
		case !hasPred && hasSucc:
			for t := lstart; t > lstart-ii; t-- {
				candidates = append(candidates, t)
			}
		case hasPred && hasSucc:
			hi := lstart
			if estart+ii-1 < hi {
				hi = estart + ii - 1
			}
			for t := estart; t <= hi; t++ {
				candidates = append(candidates, t)
			}
		default:
			base := asap[v]
			if frontier > base {
				base = frontier
			}
			for t := base; t < base+ii; t++ {
				candidates = append(candidates, t)
			}
		}

		done := false
		for _, t := range candidates {
			if r, ok := table.place(class, t, occ); ok {
				time[v], res[v], placed[v] = t, r, true
				done = true
				break
			}
		}
		if done {
			if time[v] > frontier {
				frontier = time[v]
			}
			remaining--
			continue
		}

		var tf int
		switch {
		case hasPred:
			tf = estart
		case hasSucc:
			tf = lstart
		default:
			tf = asap[v]
			if frontier > tf {
				tf = frontier
			}
		}
		if tf <= lastForced[v] {
			tf = lastForced[v] + 1
		}
		lastForced[v] = tf

		evict := func(u int) {
			if placed[u] {
				table.release(res[u])
				placed[u] = false
				remaining++
			}
		}
		for _, e := range preds[v] {
			if e.From != v && placed[e.From] &&
				tf < time[e.From]+model.Latency(l.Ops[e.From].Kind)-ii*e.Dist {
				evict(e.From)
			}
		}
		for _, e := range succs[v] {
			if e.To != v && placed[e.To] &&
				time[e.To] < tf+model.Latency(op.Kind)-ii*e.Dist {
				evict(e.To)
			}
		}

		if occ <= ii {
			bestUnit, bestCount := -1, inf
			units := buses
			if class == refFPU {
				units = fpus
			}
			for u := 0; u < units; u++ {
				cnt := 0
				for w := 0; w < n; w++ {
					if placed[w] && w != v && res[w].class == class &&
						refTouchesUnit(res[w], u, tf, occ, ii) {
						cnt++
					}
				}
				if cnt < bestCount {
					bestUnit, bestCount = u, cnt
				}
			}
			for w := 0; w < n; w++ {
				if placed[w] && w != v && res[w].class == class &&
					refTouchesUnit(res[w], bestUnit, tf, occ, ii) {
					evict(w)
				}
			}
		} else {
			for w := 0; w < n; w++ {
				if placed[w] && w != v && res[w].class == class {
					evict(w)
				}
			}
		}
		r, ok := table.place(class, tf, occ)
		if !ok {
			return nil, false
		}
		time[v], res[v], placed[v] = tf, r, true
		if tf > frontier {
			frontier = tf
		}
		remaining--
	}

	min := 0
	for _, t := range time {
		if t < min {
			min = t
		}
	}
	if min < 0 {
		shift := ((-min + ii - 1) / ii) * ii
		for v := range time {
			time[v] += shift
		}
	}
	return &refSchedule{ii: ii, time: time}, true
}

// refModuloSchedule is the pre-optimization ModuloSchedule pipeline.
func refModuloSchedule(l *ddg.Loop, m machine.Machine, minII int) (*refSchedule, bool) {
	buses, fpus := m.Slots()
	model := m.Model
	order := refHRMSOrder(l, model)

	mii := refResMII(l, model, buses, fpus)
	if rec := refRecMII(l, model); rec > mii {
		mii = rec
	}
	if minII > mii {
		mii = minII
	}
	totalOcc, maxOcc := 0, 1
	for _, op := range l.Ops {
		occ := model.Occupancy(op.Kind)
		totalOcc += occ
		if occ > maxOcc {
			maxOcc = occ
		}
	}
	maxII := mii + refCriticalPath(l, model) + totalOcc*(maxOcc+1) + 8

	// Fresh uncached preds/succs, as the old path computed them.
	preds := make([][]ddg.Edge, len(l.Ops))
	succs := make([][]ddg.Edge, len(l.Ops))
	for _, e := range l.Edges {
		preds[e.To] = append(preds[e.To], e)
		succs[e.From] = append(succs[e.From], e)
	}
	asap := refASAP(l, model)

	for ii := mii; ii <= maxII; ii++ {
		if s, ok := refTryPlace(l, model, buses, fpus, ii, order, preds, succs, asap); ok {
			return s, true
		}
	}
	return nil, false
}

// TestDifferentialScheduler pins the optimized scheduler against the
// retained reference path: identical II and identical per-op start cycles
// for every workbench loop, across all machine widths of the paper's
// factor-8 and factor-16 rows and all four cycle models (two in -short
// mode). The wide factor-16 configurations are where Figure 9's placement
// evicts the most.
func TestDifferentialScheduler(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 150
	models := machine.CycleModels()
	if testing.Short() {
		p.Loops = 40
		models = []machine.CycleModel{machine.FourCycle, machine.OneCycle}
	}
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range append(machine.ConfigsWithFactor(8), machine.ConfigsWithFactor(16)...) {
		for _, model := range models {
			m := machine.New(cfg, 256, model)
			for _, src := range loops {
				l, _ := widen.Transform(src, cfg.Width)
				want, ok := refModuloSchedule(l, m, 0)
				got, err := sched.ModuloSchedule(l, m, nil)
				if !ok {
					if err == nil {
						t.Fatalf("%s %s %s: reference failed, optimized succeeded",
							src.Name, cfg, model)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %s %s: optimized failed: %v", src.Name, cfg, model, err)
				}
				if got.II != want.ii {
					t.Fatalf("%s %s %s: II = %d, reference %d",
						src.Name, cfg, model, got.II, want.ii)
				}
				for v := range want.time {
					if got.Time[v] != want.time[v] {
						t.Fatalf("%s %s %s: op %d starts at %d, reference %d",
							src.Name, cfg, model, v, got.Time[v], want.time[v])
					}
				}
			}
		}
	}
}

// TestDifferentialSchedulerMinII exercises the spill pass's II-floor path
// (Options.MinII) against the reference at raised floors: a few cycles
// above the base II on 2w2, and two and four times it on the one-bus wide
// 1w16, where the candidate windows span several row words and wrap.
func TestDifferentialSchedulerMinII(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 30
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg    machine.Config
		floors func(base int) []int
	}{
		{machine.Config{Buses: 2, Width: 2}, func(base int) []int { return []int{base + 3} }},
		{machine.Config{Buses: 1, Width: 16}, func(base int) []int { return []int{2 * base, 4 * base} }},
	} {
		m := machine.New(c.cfg, 256, machine.FourCycle)
		for _, src := range loops {
			l, _ := widen.Transform(src, c.cfg.Width)
			base, err := sched.ModuloSchedule(l, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, minII := range c.floors(base.II) {
				want, ok := refModuloSchedule(l, m, minII)
				got, err := sched.ModuloSchedule(l, m, &sched.Options{MinII: minII})
				if !ok || err != nil {
					t.Fatalf("%s %s MinII %d: ok=%v err=%v", src.Name, c.cfg, minII, ok, err)
				}
				if got.II != want.ii {
					t.Fatalf("%s %s MinII %d: II = %d, reference %d", src.Name, c.cfg, minII, got.II, want.ii)
				}
				for v := range want.time {
					if got.Time[v] != want.time[v] {
						t.Fatalf("%s %s MinII %d: op %d starts at %d, reference %d",
							src.Name, c.cfg, minII, v, got.Time[v], want.time[v])
					}
				}
			}
		}
	}
}

// FuzzScheduleMatchesReference pins the scheduler against the reference
// path on generated loops, spilled or not: the same II and the same start
// cycles, or a failure on both sides. The input draws a loopgen seed and
// a body of at most 24 operations, a width in {1, 2, 4, 8, 16}, 1-4
// buses, a cycle model, up to six Loop.Spill calls on operations the seed
// picks, and an offset of up to 127 cycles that raises the II floor above
// the MII. Every run schedules through one Workspace shared across the
// runs, so the placer's slabs meet loops of every shape in turn.
func FuzzScheduleMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(18), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0))
	f.Add(int64(20), uint8(18), uint8(4), uint8(0), uint8(2), uint8(6), uint8(0))
	f.Add(int64(1998), uint8(12), uint8(3), uint8(1), uint8(0), uint8(3), uint8(70))
	ws := sched.NewWorkspace()
	f.Fuzz(func(t *testing.T, seed int64, maxOps, widthExp, busCount, model, spills, minII uint8) {
		p := loopgen.Defaults()
		p.Loops, p.Seed = 1, seed
		p.MaxOps = p.MinOps + int(maxOps)%(24-p.MinOps+1)
		loops, err := loopgen.Workbench(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.Config{Buses: 1 + int(busCount)%4, Width: 1 << (widthExp % 5)}
		l, _ := widen.Transform(loops[0], cfg.Width)
		rng := rand.New(rand.NewSource(seed))
		for i := int(spills) % 7; i > 0; i-- {
			l.Spill(rng.Intn(len(l.Ops)))
		}
		m := machine.New(cfg, 256, machine.CycleModels()[model%4])
		buses, fpus := m.Slots()
		floor := l.MII(m.Model, buses, fpus) + int(minII)%128
		what := fmt.Sprintf("%s (%d ops) %s %s MinII %d", l.Name, len(l.Ops), cfg, m.Model, floor)

		want, ok := refModuloSchedule(l, m, floor)
		got, err := sched.ModuloSchedule(l, m, &sched.Options{MinII: floor, Workspace: ws})
		if !ok || err != nil {
			if ok || !errors.Is(err, sched.ErrNoSchedule) {
				t.Fatalf("%s: reference ok=%v, scheduler err=%v", what, ok, err)
			}
			return
		}
		if got.II != want.ii || !slices.Equal(got.Time, want.time) {
			t.Fatalf("%s: II %d times %v, reference II %d times %v", what, got.II, got.Time, want.ii, want.time)
		}
	})
}

// TestSafeMaxIIMatchesDefinition pins the II search cap, which
// ModuloSchedule derives from each operation's ASAP time, latency and
// occupancy, to its definition: MII + the loop's critical path +
// totalOcc·(maxOcc+1) + 8, for every loop of the 40-loop default workbench
// widened to each width from 1 to 16 and scheduled for 1wY under every
// cycle model.
func TestSafeMaxIIMatchesDefinition(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 40
	loops, err := loopgen.Workbench(p)
	if err != nil {
		t.Fatal(err)
	}
	for width := 1; width <= 16; width++ {
		for _, src := range loops {
			l, _ := widen.Transform(src, width)
			for _, model := range machine.CycleModels() {
				buses, fpus := machine.New(machine.Config{Buses: 1, Width: width}, 256, model).Slots()
				mii := l.MII(model, buses, fpus)
				lat, occ := make([]int, l.NumOps()), make([]int, l.NumOps())
				totalOcc, maxOcc := 0, 1
				for v, op := range l.Ops {
					lat[v], occ[v] = model.Latency(op.Kind), model.Occupancy(op.Kind)
					totalOcc += occ[v]
					maxOcc = max(maxOcc, occ[v])
				}
				want := mii + l.CriticalPath(model) + totalOcc*(maxOcc+1) + 8
				if got := sched.SafeMaxII(mii, l.Analysis().ASAP(model), lat, occ); got != want {
					t.Fatalf("%s %s: cap %d, definition %d", l.Name, model, got, want)
				}
			}
		}
	}
}
