package exact

import (
	"sort"

	"repro/internal/lifetimes"
	"repro/internal/regalloc"
)

// PackMinRegs returns the smallest register count any wands-only packing
// of the lifetime set achieves, by branch-and-bound over the modulo
// offsets, scanning sizes upward from the MaxLive lower bound to the
// greedy end-fit upper bound (so the result is never worse than the
// heuristic allocator's). proved is false only when the node budget ran
// out before the scan settled; the returned count is always achievable.
// nodeBudget <= 0 means DefaultNodeBudget.
func PackMinRegs(set *lifetimes.Set, nodeBudget int) (regs int, proved bool) {
	if nodeBudget <= 0 {
		nodeBudget = DefaultNodeBudget
	}
	return packMinRegs(set, &budget{limit: nodeBudget})
}

type fitOutcome int

const (
	fitNo fitOutcome = iota
	fitYes
	fitBudget
)

func packMinRegs(set *lifetimes.Set, b *budget) (int, bool) {
	upper := regalloc.MinRegs(set, regalloc.EndFit)
	if len(set.Values) == 0 {
		return upper, true
	}
	lower := set.MaxLive()
	if upper <= lower {
		return upper, true
	}
	p := newPacker(set)
	for regs := lower; regs < upper; regs++ {
		switch p.fit(regs, b) {
		case fitYes:
			return regs, true
		case fitBudget:
			return upper, false
		}
	}
	return upper, true
}

// packer searches offset assignments on the register torus: an arc for
// value v at offset k occupies Len rows starting at (Start + k*II) mod
// (regs*II), wrapping — the same model the greedy allocator packs. Torus
// rotation by II maps offset k to k+1 everywhere, so the first arc in the
// order is pinned to offset 0.
type packer struct {
	set   *lifetimes.Set
	order []int
	words []uint64
	circ  int
	b     *budget
}

func newPacker(set *lifetimes.Set) *packer {
	p := &packer{set: set, order: make([]int, len(set.Values))}
	for i := range p.order {
		p.order[i] = i
	}
	// Longest arcs are the hardest to place; branch on them first.
	sort.Slice(p.order, func(a, b int) bool {
		va, vb := set.Values[p.order[a]], set.Values[p.order[b]]
		if va.Len != vb.Len {
			return va.Len > vb.Len
		}
		if va.Start != vb.Start {
			return va.Start < vb.Start
		}
		return va.Op < vb.Op
	})
	return p
}

func (p *packer) fit(regs int, b *budget) fitOutcome {
	p.circ = regs * p.set.II
	words := (p.circ + 63) / 64
	if cap(p.words) < words {
		p.words = make([]uint64, words)
	} else {
		p.words = p.words[:words]
		clear(p.words)
	}
	p.b = b
	return p.dfs(0, regs)
}

func (p *packer) dfs(d, regs int) fitOutcome {
	if d == len(p.order) {
		return fitYes
	}
	v := p.set.Values[p.order[d]]
	maxK := regs
	if d == 0 {
		maxK = 1
	}
	start := regalloc.Mod(v.Start, p.circ)
	for k := 0; k < maxK; k++ {
		if !p.b.spend() {
			return fitBudget
		}
		if !p.busy(start, v.Len) {
			p.mark(start, v.Len, true)
			out := p.dfs(d+1, regs)
			p.mark(start, v.Len, false)
			if out != fitNo {
				return out
			}
		}
		if start += p.set.II; start >= p.circ {
			start -= p.circ
		}
	}
	return fitNo
}

// busy reports whether any of the len rows starting at `start` (wrapping
// at circ) is occupied. Lengths above circ never fit; MaxLive >=
// ceil(Len/II) guarantees they are not probed at feasible sizes, but
// guard anyway.
func (p *packer) busy(start, length int) bool {
	if length > p.circ {
		return true
	}
	for i := 0; i < length; i++ {
		r := start + i
		if r >= p.circ {
			r -= p.circ
		}
		if p.words[r>>6]&(1<<uint(r&63)) != 0 {
			return true
		}
	}
	return false
}

func (p *packer) mark(start, length int, on bool) {
	for i := 0; i < length; i++ {
		r := start + i
		if r >= p.circ {
			r -= p.circ
		}
		if on {
			p.words[r>>6] |= 1 << uint(r&63)
		} else {
			p.words[r>>6] &^= 1 << uint(r&63)
		}
	}
}
