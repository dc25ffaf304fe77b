// Package lifetimes computes value lifetimes and register pressure for
// modulo schedules.
//
// Every operation that defines a register result creates one value per
// iteration. In a width-Y configuration the value occupies one register of
// width Y whether or not the operation was packed — a non-compacted value
// simply wastes the upper lanes. This is the register-capacity effect the
// paper credits for widening's resistance to spill code (Section 3.2).
//
// A value is live from the issue cycle of its defining operation until the
// issue cycle of its last consumer (plus II times the dependence distance
// for consumers in later iterations). Because the schedule repeats every
// II cycles, a lifetime of length L contributes floor(L/II) simultaneously
// live copies in every cycle of the kernel plus one more in L mod II of
// them; MaxLive — the maximum over the kernel cycles of the number of live
// values — is the classical lower bound on the registers any allocation
// needs (Rau et al., PLDI'92; Llosa et al., IJPP'98).
package lifetimes

import (
	"fmt"

	"repro/internal/sched"
)

// Value is the lifetime of one loop value.
type Value struct {
	// Op is the defining operation.
	Op int
	// Start is the absolute issue cycle of the definition.
	Start int
	// Len is the lifetime length in cycles (>= 1: the destination
	// register is held at least for the defining cycle).
	Len int
	// Uses is the number of consuming operations.
	Uses int
}

// End returns the first cycle after the lifetime.
func (v Value) End() int { return v.Start + v.Len }

// Set holds the lifetimes of all values of a schedule.
type Set struct {
	// II is the schedule's initiation interval.
	II int
	// Values lists one lifetime per result-producing operation, in
	// operation order.
	Values []Value
}

// Compute derives the lifetimes of a schedule.
func Compute(s *sched.Schedule) *Set {
	return ComputeInto(&Set{}, s)
}

// ComputeInto derives the lifetimes of a schedule into dst, reusing dst's
// value storage. The spill pass recomputes lifetimes once per
// spill-reschedule round and once per candidate II of the growth
// fallback; reusing one Set keeps those rounds allocation-free.
func ComputeInto(dst *Set, s *sched.Schedule) *Set {
	l := s.Loop
	dst.II = s.II
	dst.Values = dst.Values[:0]
	succs := l.Succs()
	for _, op := range l.Ops {
		if !op.Kind.HasResult() {
			continue
		}
		v := Value{Op: op.ID, Start: s.Time[op.ID], Len: 1}
		for _, e := range succs[op.ID] {
			v.Uses++
			end := s.Time[e.To] + s.II*e.Dist
			if n := end - v.Start; n > v.Len {
				v.Len = n
			}
		}
		dst.Values = append(dst.Values, v)
	}
	return dst
}

// Pressure returns the number of live values at each cycle of the kernel
// (length II).
func (s *Set) Pressure() []int {
	return s.PressureInto(nil)
}

// PressureInto is Pressure writing into dst (grown when too small) so
// repeated pressure queries over reused sets do not allocate. A grown
// buffer gets a quarter more room than the II: a regalloc.Search reuses
// one buffer across the spill pass's II search, which rises a step at a
// time, and a buffer of exactly the II would regrow at each step.
func (s *Set) PressureInto(dst []int) []int {
	if s.II <= cap(dst) {
		dst = dst[:s.II]
		clear(dst)
	} else {
		dst = make([]int, s.II, s.II+s.II/4)
	}
	s.fillPressure(dst)
	return dst
}

// fillPressure writes the per-row live counts into p (len II, zeroed) in
// O(values + II): the full kernel turns of every value add one constant to
// all rows, and each partial run of L mod II rows is a +1 at its start row
// and a -1 just past its end row (split in two where it wraps), so one
// prefix sum over p yields the counts. It neither retains nor returns p,
// so callers can pass stack buffers.
func (s *Set) fillPressure(p []int) {
	ii := s.II
	full := 0
	for _, v := range s.Values {
		full += v.Len / ii
		rem := v.Len % ii
		if rem <= 0 {
			continue
		}
		start := v.Start % ii
		p[start]++
		switch end := start + rem; {
		case end < ii:
			p[end]--
		case end > ii:
			// Rows [start, II) and [0, end-II).
			p[0]++
			p[end-ii]--
		}
	}
	live := full
	for r := range p {
		live += p[r]
		p[r] = live
	}
}

// MaxLive returns the maximum number of simultaneously live values — the
// lower bound on the register requirement. For the kernel sizes real
// schedules produce it runs off a stack buffer and does not allocate.
func (s *Set) MaxLive() int {
	var buf [64]int
	var p []int
	if s.II <= len(buf) {
		p = buf[:s.II]
	} else {
		p = make([]int, s.II)
	}
	s.fillPressure(p)
	max := 0
	for _, n := range p {
		if n > max {
			max = n
		}
	}
	return max
}

// TotalLen returns the sum of lifetime lengths (a traffic-free aggregate
// pressure measure: TotalLen / II is the average number of live values).
func (s *Set) TotalLen() int {
	sum := 0
	for _, v := range s.Values {
		sum += v.Len
	}
	return sum
}

// Validate checks internal consistency.
func (s *Set) Validate() error {
	if s.II < 1 {
		return fmt.Errorf("lifetimes: invalid II %d", s.II)
	}
	for _, v := range s.Values {
		if v.Len < 1 {
			return fmt.Errorf("lifetimes: value of op %d has length %d", v.Op, v.Len)
		}
		if v.Start < 0 {
			return fmt.Errorf("lifetimes: value of op %d starts at %d", v.Op, v.Start)
		}
	}
	return nil
}
