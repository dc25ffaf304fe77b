// Package ddg represents the data dependence graphs of software-pipelined
// inner loops.
//
// A Loop is a set of operations (one iteration of the loop body) and a set
// of dependence edges. An edge carries an iteration distance: an edge u->v
// with distance d says that v in iteration i depends on u in iteration i-d.
// Distance-0 edges are intra-iteration dependences; edges with distance >= 1
// close recurrences. The latency of a dependence is a property of the
// producing operation and of the cycle model in force, so it is not stored
// on the edge (the paper adapts latencies to the processor cycle time,
// Section 5.2).
//
// The package provides the standard modulo-scheduling analyses: strongly
// connected components, the recurrence-constrained lower bound on the
// initiation interval (RecMII), the resource-constrained bound (ResMII),
// ASAP/ALAP times, and the scheduler's HRMS node order with the
// per-operation latency and occupancy tables it places by, all memoized
// per loop shape and cycle model (see Analysis). Loop.Spill is the spill
// pass's rewrite: it routes a value through memory and resets the loop's
// analysis snapshot in place. Loop.CopyFrom makes an owned loop a copy of
// another in its own storage and resets its snapshot the same way, so the
// spill pass reuses one working loop, and one snapshot, across calls. A
// reset snapshot recomputes every analysis, edge lists and SCCs included,
// on first read into the storage it already holds.
package ddg

import (
	"fmt"
	"sync/atomic"

	"repro/internal/machine"
)

// Op is one operation of the loop body.
type Op struct {
	// ID is the operation's index in Loop.Ops.
	ID int
	// Kind is the architectural class of the operation.
	Kind machine.OpKind
	// Stride is the element stride of a memory access across consecutive
	// iterations: 1 means consecutive words (compactable when widening),
	// anything else (including 0 for loop-invariant or indirect accesses)
	// is not compactable. Ignored for FPU operations.
	Stride int
	// Scalar marks an operation whose result is consumed outside the
	// vectorizable dataflow (e.g. an address computation or a value with
	// iteration-dependent control); scalar operations are never
	// compactable even outside recurrences.
	Scalar bool
	// Wide marks an operation that is already a packed wide operation
	// covering Lanes basic operations (produced by the widening
	// transformation; source loops have Wide == false).
	Wide bool
	// Spill marks a store/load inserted by the spill pass; spill values
	// are never themselves spill candidates.
	Spill bool
	// Lanes is the number of basic operations a wide operation packs
	// (1 for ordinary operations).
	Lanes int
	// Name is an optional label used in schedules and DOT dumps.
	Name string
}

// Edge is a dependence u->v with an iteration distance.
type Edge struct {
	From, To int
	// Dist is the dependence distance in iterations (>= 0). Cycles in the
	// graph must have a positive total distance.
	Dist int
}

// Loop is the dependence graph of one inner loop plus its execution weight.
// A Loop must not be copied by value once in use: it carries its analysis
// cache (see Analysis), which Clone deliberately does not share.
type Loop struct {
	// Name identifies the loop in reports.
	Name string
	// Trips is the number of iterations the loop executes in the original
	// program run; it weights the loop's contribution to total cycles.
	Trips int64
	Ops   []Op
	Edges []Edge

	// analysis memoizes the scheduling analyses; see Loop.Analysis.
	analysis atomic.Pointer[Analysis]
}

// NumOps returns the number of operations in the loop body.
func (l *Loop) NumOps() int { return len(l.Ops) }

// Validate checks structural invariants: dense IDs, edges in range,
// non-negative distances, valid operation kinds, positive lanes, and
// acyclicity of the distance-0 subgraph (an intra-iteration dependence
// cycle is not executable).
//
// It runs the checks of Analysis.Validate on a snapshot it does not keep,
// so validating a loop leaves no analysis cached on it.
func (l *Loop) Validate() error {
	a := &Analysis{loop: l, nOps: len(l.Ops), nEdges: len(l.Edges)}
	return a.Validate()
}

// validateShape runs every Validate check except distance-0 acyclicity
// (Analysis.Validate supplies that one from its topological order).
func (l *Loop) validateShape() error {
	if l.Trips < 1 {
		return fmt.Errorf("ddg: loop %q: trips must be >= 1, got %d", l.Name, l.Trips)
	}
	for i, op := range l.Ops {
		if op.ID != i {
			return fmt.Errorf("ddg: loop %q: op at index %d has ID %d", l.Name, i, op.ID)
		}
		if !op.Kind.Valid() {
			return fmt.Errorf("ddg: loop %q: op %d has invalid kind %d", l.Name, i, int(op.Kind))
		}
		if op.Lanes < 1 {
			return fmt.Errorf("ddg: loop %q: op %d has %d lanes", l.Name, i, op.Lanes)
		}
		if !op.Wide && op.Lanes != 1 {
			return fmt.Errorf("ddg: loop %q: non-wide op %d has %d lanes", l.Name, i, op.Lanes)
		}
	}
	for _, e := range l.Edges {
		if e.From < 0 || e.From >= len(l.Ops) || e.To < 0 || e.To >= len(l.Ops) {
			return fmt.Errorf("ddg: loop %q: edge %d->%d out of range", l.Name, e.From, e.To)
		}
		if e.Dist < 0 {
			return fmt.Errorf("ddg: loop %q: edge %d->%d has negative distance %d",
				l.Name, e.From, e.To, e.Dist)
		}
		if e.From == e.To && e.Dist == 0 {
			return fmt.Errorf("ddg: loop %q: op %d depends on itself within an iteration",
				l.Name, e.From)
		}
		// Edges sourced at stores are legal: they are memory-ordering
		// dependences (e.g. a spill store feeding the corresponding
		// reload), not register flows.
	}
	return nil
}

// Clone returns a deep copy of the loop.
func (l *Loop) Clone() *Loop {
	out := &Loop{Name: l.Name, Trips: l.Trips}
	out.Ops = append([]Op(nil), l.Ops...)
	out.Edges = append([]Edge(nil), l.Edges...)
	return out
}

// CopyFrom makes l a copy of src in l's own storage: src's name, trip
// count, operations and edges, reusing l's slices. When l holds an
// analysis snapshot, CopyFrom resets it in place (see Analysis), so every
// analysis is recomputed on demand into its storage; src's snapshot is
// not read.
//
// A loop that is copied into again and again (the spill pass's working
// loop) thus stops allocating storage proportional to its size once it
// has grown to the largest loop it holds. src may be shared; l must be
// owned by the caller, and slices and maps read from l's snapshot before
// the copy are stale after it.
func (l *Loop) CopyFrom(src *Loop) {
	l.Name, l.Trips = src.Name, src.Trips
	l.Ops = append(l.Ops[:0], src.Ops...)
	l.Edges = append(l.Edges[:0], src.Edges...)
	if a := l.analysis.Load(); a != nil {
		a.reset()
	}
}

// Preds returns, for each operation, the list of incoming edges. The
// result is memoized; callers must treat it as read-only.
func (l *Loop) Preds() [][]Edge { return l.Analysis().Preds() }

// Succs returns, for each operation, the list of outgoing edges. The
// result is memoized; callers must treat it as read-only.
func (l *Loop) Succs() [][]Edge { return l.Analysis().Succs() }

// Counts returns the number of operations of each kind, in basic-operation
// units for wide operations disabled (each op counts once regardless of
// lanes; use LaneCounts for basic-operation totals).
func (l *Loop) Counts() map[machine.OpKind]int {
	c := make(map[machine.OpKind]int, 6)
	for _, op := range l.Ops {
		c[op.Kind]++
	}
	return c
}

// LaneCounts returns the number of basic operations of each kind, counting
// a wide operation as Lanes basic operations.
func (l *Loop) LaneCounts() map[machine.OpKind]int {
	c := make(map[machine.OpKind]int, 6)
	for _, op := range l.Ops {
		c[op.Kind] += op.Lanes
	}
	return c
}

// Builder incrementally constructs a valid Loop.
type Builder struct {
	loop Loop
}

// NewBuilder starts a loop with the given name and trip count.
func NewBuilder(name string, trips int64) *Builder {
	return &Builder{loop: Loop{Name: name, Trips: trips}}
}

// Op appends an operation and returns its ID.
func (b *Builder) Op(kind machine.OpKind, name string) int {
	id := len(b.loop.Ops)
	b.loop.Ops = append(b.loop.Ops, Op{ID: id, Kind: kind, Lanes: 1, Name: name})
	return id
}

// Load appends a load with the given element stride and returns its ID.
func (b *Builder) Load(stride int, name string) int {
	id := b.Op(machine.Load, name)
	b.loop.Ops[id].Stride = stride
	return id
}

// Store appends a store with the given element stride and returns its ID.
func (b *Builder) Store(stride int, name string) int {
	id := b.Op(machine.Store, name)
	b.loop.Ops[id].Stride = stride
	return id
}

// Scalar marks an operation as non-compactable regardless of recurrences.
func (b *Builder) Scalar(id int) { b.loop.Ops[id].Scalar = true }

// Flow adds a dependence from -> to with the given iteration distance.
func (b *Builder) Flow(from, to, dist int) {
	b.loop.Edges = append(b.loop.Edges, Edge{From: from, To: to, Dist: dist})
}

// Build validates and returns the loop. It panics on an invalid graph:
// builders are used by generators and tests where an invalid graph is a
// programming error.
func (b *Builder) Build() *Loop {
	l := b.loop.Clone()
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return l
}
