package ddg

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/machine"
)

// Analysis memoizes the scheduling analyses of one Loop: edge lists,
// strongly connected components, ASAP/ALAP times, recurrence bounds,
// resource bounds, each operation's latency and occupancy, and the HRMS
// node order. One ModuloSchedule call needs most of these several times
// (the ordering phase and the MII bound share SCCs and ASAP), and the
// spill pass re-schedules the same loop at every II retry; the cache makes
// every analysis a compute-once lookup for the loop's lifetime.
//
// An Analysis snapshot is keyed to the loop's shape (operation and edge
// counts). Loop.Analysis revalidates the snapshot on every call, so
// append-style mutations are picked up automatically: the next call builds
// a fresh snapshot. Code that mutates a loop without changing either count
// must call Loop.InvalidateAnalysis.
//
// The two mutations of an owned loop, Loop.Spill and Loop.CopyFrom, reset
// the loop's snapshot in place instead: it takes the loop's new shape and
// marks every analysis not computed, so each is recomputed on demand into
// the storage it already holds, edge lists, SCCs and the recurrence-op map
// included. A snapshot's analyses thus depend only on its own loop, and an
// owned loop keeps one snapshot for life. Slices and maps read from a
// snapshot before a Spill or a CopyFrom are stale after it.
//
// All methods are safe for concurrent use; the perfcost engine analyses
// shared widened loops from many goroutines. Returned slices and maps are
// owned by the cache: callers must treat them as read-only.
type Analysis struct {
	loop         *Loop
	nOps, nEdges int

	mu sync.Mutex

	validErr error

	preds, succs edgeLists
	topoZero     []int     // topological order of the distance-0 subgraph
	sccs         [][]int   // components, carved from sccBuf
	sccBuf       []int     // every operation, component by component
	recEdges     []recEdge // one component's edges (recMIIOfComponent)
	recOps       map[int]bool

	// cnt is the shared counting scratch of the slab builders below
	// (count-then-fill construction), of the topological sort's in-degrees,
	// of Tarjan's algorithm, of the RecMII search and of the HRMS ordering's
	// arrays; it only lives under mu.
	cnt []int

	models map[machine.CycleModel]*modelAnalysis
	resMII map[resMIIKey]int

	validated, haveTopo, havePreds, haveSuccs, haveSCCs, haveRecOps bool
}

// edgeLists is one direction's per-node edge lists, carved from one slab.
// They keep their storage while not built (see Analysis.havePreds), so a
// reset snapshot builds into them.
type edgeLists struct {
	lists [][]Edge
	slab  []Edge
}

// build fills the lists with the edges keyed by key(e), in edge-index
// order, by count-then-fill: cnt (n zeroed ints) counts each list, and the
// lists are carved from the slab.
func (el *edgeLists) build(n int, edges []Edge, cnt []int, key func(Edge) int) {
	for _, e := range edges {
		cnt[key(e)]++
	}
	slab := slices.Grow(el.slab[:0], len(edges))[:len(edges)]
	heads := slices.Grow(el.lists[:0], n)[:n]
	off := 0
	for v := range heads {
		heads[v] = slab[off : off : off+cnt[v]]
		off += cnt[v]
	}
	for _, e := range edges {
		v := key(e)
		heads[v] = append(heads[v], e)
	}
	el.lists, el.slab = heads, slab
}

// modelAnalysis holds the analyses that depend on the cycle model. The
// per-operation arrays (latency, occupancy, ASAP, ALAP and the HRMS order)
// are carved from one slab when the tables are filled; every other array
// depends on the tables, so none of them is computed then.
type modelAnalysis struct {
	slab                        []int
	lat, occ, asap, alap, order []int
	recPrio                     []int // per-node component RecMII (0 outside recurrences)
	recMII                      int

	haveTables, haveASAP, haveALAP, haveOrder, haveRec bool
}

type resMIIKey struct {
	model       machine.CycleModel
	buses, fpus int
}

// Analysis returns the loop's analysis cache, building a fresh one when
// the loop's shape changed since the last snapshot.
func (l *Loop) Analysis() *Analysis {
	for {
		a := l.analysis.Load()
		if a != nil && a.nOps == len(l.Ops) && a.nEdges == len(l.Edges) {
			return a
		}
		fresh := &Analysis{loop: l, nOps: len(l.Ops), nEdges: len(l.Edges)}
		if l.analysis.CompareAndSwap(a, fresh) {
			return fresh
		}
	}
}

// InvalidateAnalysis drops the cached analyses. Only mutations that keep
// both the operation and the edge counts unchanged need to call it;
// appends are detected by Analysis itself.
func (l *Loop) InvalidateAnalysis() { l.analysis.Store(nil) }

// reset makes a a snapshot of its loop's current shape with no analysis
// computed, keeping the storage of every analysis and of the counting
// scratch (see Analysis); the ResMII memo is emptied.
func (a *Analysis) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nOps, a.nEdges = len(a.loop.Ops), len(a.loop.Edges)
	a.validated, a.validErr = false, nil
	a.havePreds, a.haveSuccs, a.haveTopo, a.haveSCCs, a.haveRecOps = false, false, false, false, false
	for _, ma := range a.models {
		ma.haveTables, ma.haveASAP, ma.haveALAP, ma.haveOrder, ma.haveRec = false, false, false, false, false
	}
	clear(a.resMII)
}

// Validate runs the checks Loop.Validate documents, once per snapshot.
// The distance-0 acyclicity check shares the cached topological order
// with ASAP/ALAP instead of re-sorting the subgraph.
func (a *Analysis) Validate() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.validated {
		a.validErr = a.loop.validateShape()
		if a.validErr == nil && len(a.topoZeroLocked()) != len(a.loop.Ops) {
			a.validErr = fmt.Errorf("ddg: loop %q: distance-0 subgraph has a cycle", a.loop.Name)
		}
		a.validated = true
	}
	return a.validErr
}

// Preds returns, for each operation, its incoming edges.
func (a *Analysis) Preds() [][]Edge {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.predsLocked()
}

// countsLocked returns the zeroed n-int counting scratch. Each builder
// uses it fully before returning; nothing retains it.
func (a *Analysis) countsLocked(n int) []int {
	a.cnt = zeroed(a.cnt, n)
	return a.cnt
}

// zeroed returns s resized to n zeroed ints. It reuses s's storage when it
// is large enough and grows it geometrically otherwise, so a reset
// snapshot recomputes into it.
func zeroed(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func (a *Analysis) predsLocked() [][]Edge {
	if !a.havePreds {
		n := len(a.loop.Ops)
		a.preds.build(n, a.loop.Edges, a.countsLocked(n), func(e Edge) int { return e.To })
		a.havePreds = true
	}
	return a.preds.lists
}

// Succs returns, for each operation, its outgoing edges.
func (a *Analysis) Succs() [][]Edge {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.succsLocked()
}

func (a *Analysis) succsLocked() [][]Edge {
	if !a.haveSuccs {
		n := len(a.loop.Ops)
		a.succs.build(n, a.loop.Edges, a.countsLocked(n), func(e Edge) int { return e.From })
		a.haveSuccs = true
	}
	return a.succs.lists
}

// SCCs returns the strongly connected components in reverse topological
// order of the condensation (see Loop.SCCs).
func (a *Analysis) SCCs() [][]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sccsLocked()
}

// sccsLocked runs Tarjan's algorithm in the counting scratch, taken after
// the successor lists are built because building them uses it too.
func (a *Analysis) sccsLocked() [][]int {
	if !a.haveSCCs {
		succs := a.succsLocked()
		n := len(succs)
		a.sccBuf = slices.Grow(a.sccBuf[:0], n)
		a.sccs = tarjanSCCs(succs, a.countsLocked(6*n), slices.Grow(a.sccs[:0], n), a.sccBuf)
		a.haveSCCs = true
	}
	return a.sccs
}

// RecurrenceOps returns the set of operations on dependence cycles. The
// map is the snapshot's own: a reset snapshot clears and refills it, which
// is safe only because no other snapshot can hold it.
func (a *Analysis) RecurrenceOps() map[int]bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recOpsLocked()
}

func (a *Analysis) recOpsLocked() map[int]bool {
	if !a.haveRecOps {
		if a.recOps == nil {
			a.recOps = make(map[int]bool)
		}
		rec := a.recOps
		clear(rec)
		for _, comp := range a.sccsLocked() {
			if len(comp) > 1 {
				for _, v := range comp {
					rec[v] = true
				}
			}
		}
		for _, e := range a.loop.Edges {
			if e.From == e.To {
				rec[e.From] = true
			}
		}
		a.haveRecOps = true
	}
	return a.recOps
}

// topoZeroLocked returns a topological order of the distance-0 subgraph
// (Kahn's algorithm over the cached successor lists, in-degrees in the
// counting scratch); it is empty when that subgraph has a cycle (Validate
// rejects such loops).
func (a *Analysis) topoZeroLocked() []int {
	if a.haveTopo {
		return a.topoZero
	}
	n := len(a.loop.Ops)
	succs := a.succsLocked()
	indeg := a.countsLocked(n)
	for _, out := range succs {
		for _, e := range out {
			if e.Dist == 0 {
				indeg[e.To]++
			}
		}
	}
	// The order doubles as the queue.
	order := slices.Grow(a.topoZero[:0], n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range succs[order[head]] {
			if e.Dist != 0 {
				continue
			}
			if indeg[e.To]--; indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != n {
		order = order[:0]
	}
	a.topoZero, a.haveTopo = order, true
	return order
}

func (a *Analysis) modelLocked(model machine.CycleModel) *modelAnalysis {
	if a.models == nil {
		a.models = make(map[machine.CycleModel]*modelAnalysis, 4)
	}
	ma := a.models[model]
	if ma == nil {
		ma = &modelAnalysis{}
		a.models[model] = ma
	}
	return ma
}

// Tables returns each operation's latency and occupancy under the model,
// the tables the scheduler places by.
func (a *Analysis) Tables(model machine.CycleModel) (lat, occ []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tablesLocked(model)
}

func (a *Analysis) tablesLocked(model machine.CycleModel) (lat, occ []int) {
	ma := a.modelLocked(model)
	if !ma.haveTables {
		n := len(a.loop.Ops)
		ma.slab = slices.Grow(ma.slab[:0], 5*n)[:5*n]
		s := ma.slab
		ma.lat, ma.occ, ma.asap = s[:n:n], s[n:2*n:2*n], s[2*n:3*n:3*n]
		ma.alap, ma.order = s[3*n:4*n:4*n], s[4*n:5*n:5*n]
		for v, op := range a.loop.Ops {
			ma.lat[v] = model.Latency(op.Kind)
			ma.occ[v] = model.Occupancy(op.Kind)
		}
		ma.haveTables = true
	}
	return ma.lat, ma.occ
}

// ASAP returns each operation's earliest start time over distance-0
// dependences.
func (a *Analysis) ASAP(model machine.CycleModel) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.asapLocked(model)
}

func (a *Analysis) asapLocked(model machine.CycleModel) []int {
	lat, _ := a.tablesLocked(model)
	ma := a.models[model]
	if !ma.haveASAP {
		asap := ma.asap
		clear(asap)
		preds := a.predsLocked()
		for _, v := range a.topoZeroLocked() {
			for _, e := range preds[v] {
				if e.Dist != 0 {
					continue
				}
				if t := asap[e.From] + lat[e.From]; t > asap[v] {
					asap[v] = t
				}
			}
		}
		ma.haveASAP = true
	}
	return ma.asap
}

// ALAP returns each operation's latest start time such that the
// distance-0 critical path still fits in the ASAP span. It reuses the
// cached ASAP pass instead of recomputing it.
func (a *Analysis) ALAP(model machine.CycleModel) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alapLocked(model)
}

func (a *Analysis) alapLocked(model machine.CycleModel) []int {
	asap := a.asapLocked(model)
	ma := a.models[model]
	if !ma.haveALAP {
		span := 0
		for _, t := range asap {
			if t > span {
				span = t
			}
		}
		alap := ma.alap
		for i := range alap {
			alap[i] = span
		}
		succs := a.succsLocked()
		order := a.topoZeroLocked()
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			for _, e := range succs[v] {
				if e.Dist != 0 {
					continue
				}
				if t := alap[e.To] - ma.lat[v]; t < alap[v] {
					alap[v] = t
				}
			}
		}
		ma.haveALAP = true
	}
	return ma.alap
}

// CriticalPath returns the longest distance-0 dependence chain in cycles.
func (a *Analysis) CriticalPath(model machine.CycleModel) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	asap := a.asapLocked(model)
	lat := a.models[model].lat
	best := 0
	for v, t := range asap {
		if end := t + lat[v]; end > best {
			best = end
		}
	}
	return best
}

// HRMSOrder returns the HRMS-family node order under the model, the
// scheduler's ordering phase: recurrence components are seeded most
// critical first (highest per-component RecMII), and every later
// operation is chosen among the neighbours of the already ordered set,
// most critical (least slack) first. When the placement phase schedules
// an operation, its graph neighbours were just scheduled, so it lands
// close to them and value lifetimes stay short — the register-pressure
// sensitivity that HRMS (and its successor Swing Modulo Scheduling) brings
// over plain top-down list ordering.
func (a *Analysis) HRMSOrder(model machine.CycleModel) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	ma := a.modelLocked(model)
	if !ma.haveOrder {
		a.orderLocked(model, ma)
	}
	return ma.order
}

// orderLocked computes ma's HRMS order. The preference between two
// operations is a fixed strict total order, so the operations are sorted
// by it once and the walk works on ranks: the next seed is the first
// unordered operation of the sorted list (a cursor that only moves
// forward), and the frontier is a min-heap of ranks that each operation
// enters once, when it first neighbours the ordered set. Every pick is the
// operation a scan for the best candidate would choose. The slack, rank,
// sorted-list, heap and seen arrays are the counting scratch, taken after
// every analysis the walk reads is computed.
func (a *Analysis) orderLocked(model machine.CycleModel, ma *modelAnalysis) {
	n := len(a.loop.Ops)
	asap, alap := a.asapLocked(model), a.alapLocked(model)
	recPrio := a.recPrioLocked(model)
	preds, succs := a.predsLocked(), a.succsLocked()
	occ := ma.occ

	tmp := a.countsLocked(5 * n)
	slack, rank, sorted := tmp[:n:n], tmp[n:2*n:2*n], tmp[2*n:3*n:3*n]
	frontier := minHeap(tmp[3*n : 3*n : 4*n])
	// seen[v] is set once v is ordered or has joined the frontier. The
	// frontier is empty whenever a seed is taken, so every operation seen
	// then is ordered.
	seen := tmp[4*n : 5*n : 5*n]
	for v := range sorted {
		slack[v] = alap[v] - asap[v]
		sorted[v] = v
	}
	// Higher recurrence criticality first, then heavier reservations (a
	// non-pipelined operation reserves many rows and fragments badly if
	// placed late, so it goes as early as the frontier allows), then less
	// slack, then earlier ASAP, then ID: 0 only when x == y.
	slices.SortFunc(sorted, func(x, y int) int {
		if c := cmp.Compare(recPrio[y], recPrio[x]); c != 0 {
			return c
		}
		if c := cmp.Compare(occ[y], occ[x]); c != 0 {
			return c
		}
		if c := cmp.Compare(slack[x], slack[y]); c != 0 {
			return c
		}
		if c := cmp.Compare(asap[x], asap[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	for r, v := range sorted {
		rank[v] = r
	}

	order := ma.order[:0]
	seed := 0 // sorted[:seed] holds no unordered operation
	for len(order) < n {
		// The frontier holds exactly the unordered operations adjacent to
		// the ordered set: an operation leaves it only when popped.
		var v int
		if len(frontier) > 0 {
			v = sorted[frontier.pop()]
		} else {
			for seen[sorted[seed]] != 0 {
				seed++
			}
			v = sorted[seed]
			seen[v] = 1
		}
		order = append(order, v)
		// Each unseen neighbour joins the frontier once (a self edge finds
		// v seen). Ranks are unique, so the order of the pushes does not
		// change the order of the pops.
		for _, e := range preds[v] {
			if w := e.From; seen[w] == 0 {
				seen[w] = 1
				frontier.push(rank[w])
			}
		}
		for _, e := range succs[v] {
			if w := e.To; seen[w] == 0 {
				seen[w] = 1
				frontier.push(rank[w])
			}
		}
	}
	ma.order, ma.haveOrder = order, true
}

// minHeap is a binary min-heap of ints. The ordering phase keeps the
// ranks of its frontier in one, so a pop yields the best-ranked
// operation.
type minHeap []int

func (h *minHeap) push(x int) {
	q := append(*h, x)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *minHeap) pop() int {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		small := l
		if r := l + 1; r < len(q) && q[r] < q[l] {
			small = r
		}
		if q[i] <= q[small] {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// RecPrio returns, per operation, the RecMII of its recurrence component
// (0 for operations outside recurrences) — the criticality the HRMS
// ordering seeds components by.
func (a *Analysis) RecPrio(model machine.CycleModel) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recPrioLocked(model)
}

// recPrioLocked computes ma's RecPrio and RecMII. The RecMII search's
// membership and distance arrays are the counting scratch, taken after the
// SCC list exists because Tarjan's algorithm uses it too.
func (a *Analysis) recPrioLocked(model machine.CycleModel) []int {
	ma := a.modelLocked(model)
	if !ma.haveRec {
		n := len(a.loop.Ops)
		sccs := a.sccsLocked()
		tmp := a.countsLocked(2 * n)
		member, dist := tmp[:n:n], tmp[n:]
		prio := zeroed(ma.recPrio, n)
		recMII := 1
		for c, comp := range sccs {
			if len(comp) == 1 && !a.hasSelfEdgeLocked(comp[0]) {
				continue
			}
			sub := a.recMIIOfComponent(comp, c+1, model, member, dist)
			for _, v := range comp {
				prio[v] = sub
			}
			if sub > recMII {
				recMII = sub
			}
		}
		ma.recPrio = prio
		ma.recMII = recMII
		ma.haveRec = true
	}
	return ma.recPrio
}

func (a *Analysis) hasSelfEdgeLocked(v int) bool {
	for _, e := range a.succsLocked()[v] {
		if e.To == v {
			return true
		}
	}
	return false
}

// RecMII returns the recurrence-constrained lower bound on the II.
func (a *Analysis) RecMII(model machine.CycleModel) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recPrioLocked(model)
	return a.models[model].recMII
}

// ResMII returns the resource-constrained lower bound on the II for the
// given bus and FPU counts.
func (a *Analysis) ResMII(model machine.CycleModel, buses, fpus int) int {
	key := resMIIKey{model, buses, fpus}
	a.mu.Lock()
	defer a.mu.Unlock()
	if v, ok := a.resMII[key]; ok {
		return v
	}
	if a.resMII == nil {
		a.resMII = make(map[resMIIKey]int, 4)
	}
	v := computeResMII(a.loop, key.model, buses, fpus)
	a.resMII[key] = v
	return v
}

// MII returns max(ResMII, RecMII).
func (a *Analysis) MII(model machine.CycleModel, buses, fpus int) int {
	res := a.ResMII(model, buses, fpus)
	if rec := a.RecMII(model); rec > res {
		return rec
	}
	return res
}

// tarjanSCCs is Tarjan's algorithm, iterative, over precomputed successor
// lists. Components come out in reverse topological order of the
// condensation, appended to out. tmp is 6n zeroed ints of scratch: index
// (0 for unvisited, so indices count from 1), low, on-stack flags, the
// stack, and call frames as (vertex, next edge) pairs. Every vertex lands
// in exactly one component, so all components are carved from buf, which
// must have capacity n: no append moves a component.
func tarjanSCCs(succs [][]Edge, tmp []int, out [][]int, buf []int) [][]int {
	n := len(succs)
	index, low, onStack := tmp[:n:n], tmp[n:2*n:2*n], tmp[2*n:3*n:3*n]
	stack, call := tmp[3*n:3*n:4*n], tmp[4*n:4*n:6*n]
	counter := 1
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		call = append(call[:0], root, 0)
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = 1

		for len(call) > 0 {
			top := len(call) - 2
			v, edge := call[top], call[top+1]
			if edge < len(succs[v]) {
				w := succs[v][edge].To
				call[top+1]++
				if index[w] == 0 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = 1
					call = append(call, w, 0)
				} else if onStack[w] != 0 && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Post-order: pop v.
			call = call[:top]
			if len(call) > 0 {
				if parent := call[len(call)-2]; low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(buf)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = 0
					buf = append(buf, w)
					if w == v {
						break
					}
				}
				out = append(out, buf[start:len(buf):len(buf)])
			}
		}
	}
	return out
}

// computeResMII is the uncached ResMII computation (see Loop.ResMII).
func computeResMII(l *Loop, model machine.CycleModel, buses, fpus int) int {
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
	if buses > 0 && memSlots > 0 {
		if m := ceilDiv(memSlots, buses); m > mii {
			mii = m
		}
	}
	if fpus > 0 && fpuSlots > 0 {
		if m := ceilDiv(fpuSlots, fpus); m > mii {
			mii = m
		}
	}
	return mii
}
