// Package widen implements the resource-widening code transformation of
// López et al.: to run a loop on a width-Y machine, the loop is unrolled by
// Y and every group of Y independent instances of a *compactable* operation
// is packed into a single wide operation that one width-Y resource executes
// in one cycle.
//
// Compactable operations (Section 2 of the paper, and the companion ICS'97/
// ICS'98 papers; the rule is ddg.Loop.Compactable) are unit-stride memory
// accesses and arithmetic operations that are not part of a recurrence;
// everything else — strided or indirect accesses, scalar computations,
// recurrent operations — cannot be packed and occupies a full wide slot
// per instance. This is exactly why widening is less versatile than
// replication: in a 1w8 configuration either 8 compactable operations or
// 1 non-compactable operation issues per cycle.
package widen

import (
	"fmt"

	"repro/internal/ddg"
)

// Info summarizes the effect of widening a loop.
type Info struct {
	// Width is the widening factor Y the loop was transformed for.
	Width int
	// WideOps is the number of packed wide operations per unrolled body.
	WideOps int
	// ScalarOps is the number of unpacked (non-compactable) operation
	// instances per unrolled body.
	ScalarOps int
	// BasicOps is the number of basic operations the unrolled body covers
	// (original ops × width).
	BasicOps int
}

// CompactedFraction returns the fraction of basic operations that were
// packed into wide operations.
func (i Info) CompactedFraction() float64 {
	if i.BasicOps == 0 {
		return 0
	}
	return float64(i.WideOps*i.Width) / float64(i.BasicOps)
}

// Transform returns the loop as it would be compiled for a machine of the
// given width: unrolled by width, with compactable operations packed into
// wide operations. Width 1 returns a clone of the input. The returned
// loop's initiation interval is per *unrolled* iteration, i.e. it covers
// width original iterations; Trips is preserved from the source loop.
func Transform(l *ddg.Loop, width int) (*ddg.Loop, Info) {
	if width < 1 {
		panic(fmt.Sprintf("widen: invalid width %d", width))
	}
	info := Info{Width: width, BasicOps: len(l.Ops) * width}
	if width == 1 {
		info.ScalarOps = len(l.Ops)
		return l.Clone(), info
	}

	out := &ddg.Loop{
		Name:  fmt.Sprintf("%s/w%d", l.Name, width),
		Trips: l.Trips,
	}

	// instanceID[origID][lane] is the transformed ID of instance `lane` of
	// the original operation. Packed operations map every lane to the same
	// wide op.
	instanceID := make([][]int, len(l.Ops))

	newOp := func(op ddg.Op, wide bool, lane int) int {
		id := len(out.Ops)
		n := ddg.Op{
			ID:     id,
			Kind:   op.Kind,
			Stride: op.Stride,
			Scalar: op.Scalar,
		}
		if wide {
			n.Wide = true
			n.Lanes = width
			n.Name = wideName(op, width)
		} else {
			n.Lanes = 1
			n.Name = laneName(op, lane)
		}
		out.Ops = append(out.Ops, n)
		return id
	}

	for _, op := range l.Ops {
		instanceID[op.ID] = make([]int, width)
		if l.Compactable(op.ID) {
			id := newOp(op, true, 0)
			for lane := 0; lane < width; lane++ {
				instanceID[op.ID][lane] = id
			}
			info.WideOps++
		} else {
			for lane := 0; lane < width; lane++ {
				instanceID[op.ID][lane] = newOp(op, false, lane)
			}
			info.ScalarOps += width
		}
	}

	// Re-map dependences. An original edge u->v with distance d becomes,
	// for each consumer lane j, an edge from u's instance at original
	// iteration offset j-d. With off = j-d: source lane = off mod width
	// (non-negative), new distance = (srcLane - off) / width unrolled
	// iterations.
	type key struct{ from, to, dist int }
	seen := make(map[key]bool)
	for _, e := range l.Edges {
		for j := 0; j < width; j++ {
			off := j - e.Dist
			srcLane := ((off % width) + width) % width
			nd := (srcLane - off) / width
			k := key{
				from: instanceID[e.From][srcLane],
				to:   instanceID[e.To][j],
				dist: nd,
			}
			if k.from == k.to && k.dist == 0 {
				// Two lanes of the same wide op: packing is only applied
				// to non-recurrent ops, so a same-op dependence at
				// distance 0 cannot arise; guard anyway.
				continue
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			out.Edges = append(out.Edges, ddg.Edge{From: k.from, To: k.to, Dist: k.dist})
		}
	}

	if err := out.Validate(); err != nil {
		// The transformation preserves validity by construction; a failure
		// here is a bug, not an input condition.
		panic(fmt.Sprintf("widen: transformed loop invalid: %v", err))
	}
	return out, info
}

func wideName(op ddg.Op, width int) string {
	base := op.Name
	if base == "" {
		base = fmt.Sprintf("%s%d", op.Kind, op.ID)
	}
	return fmt.Sprintf("%s[w%d]", base, width)
}

func laneName(op ddg.Op, lane int) string {
	base := op.Name
	if base == "" {
		base = fmt.Sprintf("%s%d", op.Kind, op.ID)
	}
	return fmt.Sprintf("%s.%d", base, lane)
}
