package main

import (
	"fmt"
	"math/rand"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
)

// genCase is a generated litmus program with a reference verdict fixed by
// its construction, not by running the checker.
type genCase struct {
	prog  *litmus.Program
	legal bool            // the same under DRF0, DRF1 and DRFrlx
	sc    map[string]bool // every SC final state, as memmodel result keys
}

// contended builds n threads of m unpaired RMW adds on one location X.
// Thread 1 repeats thread 0 except for one operand, so the family always
// holds threads that differ in a single operand: one add's, or with
// planted set, the value of a plain store to Y that threads 0 and 1 each
// end with. That store pair is an unsynchronised write pair, so a planted
// program is illegal under every model and its SC finals are exactly
// {X=sum, Y=v0} and {X=sum, Y=v1}.
// Without it the adds commute, every model accepts the program, and the
// one SC final is X = init + sum of all operands. init lets a caller make
// each program's canonical form unique.
func contended(rng *rand.Rand, n, m int, planted bool, init int64) genCase {
	p := litmus.New(fmt.Sprintf("contended_%dx%d", n, m))
	if planted {
		p.Name += "_planted"
	}
	if init != 0 {
		p.SetInit("X", init)
	}
	ops := make([][]int64, n)
	for t := range ops {
		ops[t] = make([]int64, m)
		for i := range ops[t] {
			ops[t][i] = 1 + rng.Int63n(2)
		}
	}
	if n > 1 {
		copy(ops[1], ops[0])
		if !planted {
			i := rng.Intn(m)
			ops[1][i] = 3 - ops[0][i] // the one operand that differs
		}
	}
	sum := init
	for t := 0; t < n; t++ {
		th := p.Thread(fmt.Sprintf("t%d", t))
		for _, v := range ops[t] {
			th.RMWDiscard(core.OpAdd, "X", v, core.Unpaired)
			sum += v
		}
	}
	g := genCase{prog: p, legal: !planted, sc: map[string]bool{}}
	if !planted {
		g.sc[memmodel.FinalResultKey(map[litmus.Loc]int64{"X": sum})] = true
		return g
	}
	v0 := 1 + rng.Int63n(4)
	for t, v := range []int64{v0, v0 + 1 + rng.Int63n(3)} {
		p.Threads[t].Store("Y", v, core.Data)
		g.sc[memmodel.FinalResultKey(map[litmus.Loc]int64{"X": sum, "Y": v})] = true
	}
	return g
}

// familyShapes fixes each generated program's size, threads x RMWs, in
// increasing order, so that the seed changes operands and values but not
// how much work a pass does. Every shape comes unplanted and planted; 4x2
// is the largest (5040 naive interleavings with the planted pair).
var familyShapes = [][2]int{{2, 3}, {3, 2}, {4, 2}}

// contendedFamily is litmus-suite's seeded generated half.
func contendedFamily(seed int64) []genCase {
	rng := rand.New(rand.NewSource(seed))
	var out []genCase
	for _, sh := range familyShapes {
		for _, planted := range []bool{false, true} {
			g := contended(rng, sh[0], sh[1], planted, 0)
			g.prog.Name = fmt.Sprintf("%s_%d", g.prog.Name, len(out))
			out = append(out, g)
		}
	}
	return out
}

// renamed returns a copy of p with its threads reordered and renamed, its
// locations renamed and each thread's registers permuted. The canonical
// form, and so every verdict, is unchanged.
func renamed(p *litmus.Program, rng *rand.Rand) *litmus.Program {
	q := litmus.New(p.Name)
	q.QuantumDomain = append([]int64(nil), p.QuantumDomain...)
	locs := map[litmus.Loc]litmus.Loc{}
	for i, j := range rng.Perm(len(p.Locs())) {
		locs[p.Locs()[i]] = litmus.Loc(fmt.Sprintf("m%d", j))
	}
	for l, v := range p.Init {
		q.Init[locs[l]] = v
	}
	for k, ti := range rng.Perm(len(p.Threads)) {
		th := p.Threads[ti]
		perm := rng.Perm(th.NumRegs())
		reg := func(r litmus.Reg) litmus.Reg {
			if r == litmus.NoReg {
				return r
			}
			return litmus.Reg(perm[r])
		}
		expr := func(e litmus.Expr) litmus.Expr {
			out := litmus.Expr{Const: e.Const}
			for _, r := range e.Regs {
				out.Regs = append(out.Regs, reg(r))
			}
			return out
		}
		nt := q.Thread(fmt.Sprintf("w%d", k))
		for _, o := range th.Ops {
			n := o
			n.Cond, n.Operand, n.Expected = expr(o.Cond), expr(o.Operand), expr(o.Expected)
			n.Dst = reg(o.Dst)
			if o.Loc != "" {
				n.Loc = locs[o.Loc]
			}
			n.Guards = nil
			for _, g := range o.Guards {
				n.Guards = append(n.Guards, litmus.Guard{A: expr(g.A), B: expr(g.B), Op: g.Op})
			}
			n.AddrDeps = nil
			for _, r := range o.AddrDeps {
				n.AddrDeps = append(n.AddrDeps, reg(r))
			}
			nt.Ops = append(nt.Ops, n)
		}
		nt.SetNumRegs(th.NumRegs())
	}
	return q
}
