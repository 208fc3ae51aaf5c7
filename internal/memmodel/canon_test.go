package memmodel

import (
	"fmt"
	"reflect"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// permuteRename returns a deep copy of p with threads reordered by perm
// (new index i holds old thread perm[i]) and locations renamed through
// ren (identity for locations not in the map).
func permuteRename(p *litmus.Program, perm []int, ren map[litmus.Loc]litmus.Loc) *litmus.Program {
	rn := func(l litmus.Loc) litmus.Loc {
		if r, ok := ren[l]; ok {
			return r
		}
		return l
	}
	q := litmus.New(p.Name + "-scrambled")
	for l, v := range p.Init {
		q.SetInit(rn(l), v)
	}
	q.QuantumDomain = append([]int64(nil), p.QuantumDomain...)
	for i, old := range perm {
		src := p.Threads[old]
		dst := q.Thread("w" + string(rune('a'+i)))
		dst.Ops = make([]litmus.Op, len(src.Ops))
		copy(dst.Ops, src.Ops)
		for oi := range dst.Ops {
			if !dst.Ops[oi].IsBranch {
				dst.Ops[oi].Loc = rn(dst.Ops[oi].Loc)
			}
		}
		dst.SetNumRegs(src.NumRegs())
	}
	return q
}

// reverse returns the permutation [n-1, ..., 0].
func reversePerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	return perm
}

// scrambleLocs maps every location of p to an ugly fresh name.
func scrambleLocs(p *litmus.Program) map[litmus.Loc]litmus.Loc {
	ren := map[litmus.Loc]litmus.Loc{}
	for i, l := range p.Locs() {
		ren[l] = litmus.Loc("zz_" + string(rune('p'+i)))
	}
	return ren
}

// TestCanonicalKeyInvariantOnCatalog checks that for every catalog case,
// reordering threads and renaming every shared location leaves the
// canonical key unchanged.
func TestCanonicalKeyInvariantOnCatalog(t *testing.T) {
	for _, c := range litmus.Suite() {
		c := c
		t.Run(c.Prog.Name, func(t *testing.T) {
			base, err := Canonicalize(c.Prog)
			if err != nil {
				t.Fatalf("Canonicalize: %v", err)
			}
			if err := base.Prog.Validate(); err != nil {
				t.Fatalf("canonical program invalid: %v", err)
			}
			scr := permuteRename(c.Prog, reversePerm(len(c.Prog.Threads)), scrambleLocs(c.Prog))
			got, err := Canonicalize(scr)
			if err != nil {
				t.Fatalf("Canonicalize(scrambled): %v", err)
			}
			if got.Key != base.Key {
				t.Errorf("key changed under thread permutation + location renaming:\n  base %s\n  scrambled %s", base.Key, got.Key)
			}
		})
	}
}

// TestCanonicalKeySeparatesCatalog checks that distinct catalog programs
// do not collide (they are structurally different, so their canonical
// forms must differ).
func TestCanonicalKeySeparatesCatalog(t *testing.T) {
	seen := map[string]string{}
	for _, c := range litmus.Suite() {
		canon, err := Canonicalize(c.Prog)
		if err != nil {
			t.Fatalf("%s: %v", c.Prog.Name, err)
		}
		if prev, ok := seen[canon.Key]; ok {
			t.Errorf("catalog programs %s and %s share canonical key %s", prev, c.Prog.Name, canon.Key)
		}
		seen[canon.Key] = c.Prog.Name
	}
}

// TestCanonicalKeyDistinguishesClasses checks that a semantically
// meaningful change (an op's class) changes the key.
func TestCanonicalKeyDistinguishesClasses(t *testing.T) {
	p := litmus.New("classes")
	p.Thread("a").Store("X", 1, core.Data)
	p.Thread("b").Load("X", core.Data)
	q := p.Relabel(func(core.Class) core.Class { return core.Unpaired })
	cp, err := Canonicalize(p)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := Canonicalize(q)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Key == cq.Key {
		t.Errorf("relabel(data->unpaired) did not change the canonical key")
	}
}

// TestCanonicalNormalizesSpelling checks that explicit zero initializers,
// register order inside sum expressions, and guard order inside
// conjunctions do not affect the key.
func TestCanonicalNormalizesSpelling(t *testing.T) {
	build := func(explicitInit bool, flip bool) *litmus.Program {
		p := litmus.New("spelling")
		if explicitInit {
			p.SetInit("X", 0)
			p.SetInit("Y", 0)
		}
		ta := p.Thread("a")
		r0 := ta.Load("X", core.Unpaired)
		r1 := ta.Load("Y", core.Unpaired)
		sum := litmus.Expr{Regs: []litmus.Reg{r0, r1}}
		g1, g2 := litmus.NZ(r0), litmus.EQZ(r1)
		if flip {
			sum.Regs = []litmus.Reg{r1, r0}
			g1, g2 = g2, g1
		}
		ta.WithGuards(g1, g2)
		ta.StoreExpr("X", sum, core.Unpaired)
		ta.EndGuards()
		p.Thread("b").Store("Y", 1, core.Unpaired)
		return p
	}
	a, err := Canonicalize(build(false, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(build(true, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Errorf("spelling differences changed the canonical key:\n  %s\n  %s", a.Key, b.Key)
	}
}

// TestRewriteVerdictMatchesDirectCheck checks the cache-hit path end to
// end: checking the canonical program and rewriting its verdict into a
// scrambled submission's namespace must equal (up to Execs, which is
// search-order dependent under POR) checking the scrambled program
// directly.
func TestRewriteVerdictMatchesDirectCheck(t *testing.T) {
	cases := []string{"MP_unpaired", "SB_nonordering", "Seqlocks", "IRIW"}
	for _, name := range cases {
		c := litmus.ByName(name)
		if c == nil {
			t.Fatalf("catalog case %s missing", name)
		}
		for _, m := range core.Models() {
			scr := permuteRename(c.Prog, reversePerm(len(c.Prog.Threads)), scrambleLocs(c.Prog))
			canon, err := Canonicalize(scr)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m, err)
			}
			canonV, err := CheckProgram(canon.Prog, m)
			if err != nil {
				t.Fatalf("%s/%s: check canonical: %v", name, m, err)
			}
			direct, err := CheckProgram(scr, m)
			if err != nil {
				t.Fatalf("%s/%s: check direct: %v", name, m, err)
			}
			got := canon.RewriteVerdict(canonV, scr.Name)
			got.Execs = direct.Execs // search-order dependent; excluded
			// Verdict.Prog carries the @model suffix from Under.
			got.Prog = direct.Prog
			if !reflect.DeepEqual(got, direct) {
				t.Errorf("%s/%s: rewritten verdict differs from direct check\n  rewritten: %+v\n  direct:    %+v", name, m, got, direct)
			}
		}
	}
}

// withTwin returns a copy of p with thread 0 appended again, so the
// canonical program has a non-trivial symmetry class.
func withTwin(p *litmus.Program) *litmus.Program {
	perm := make([]int, len(p.Threads)+1)
	for i := range p.Threads {
		perm[i] = i
	}
	return permuteRename(p, perm, nil)
}

// TestCanonicalClassesAreExact is the property test of the symmetry
// classes: on the catalog (with and without a twin thread) and random
// programs, the classes partition the canonical threads, every member of
// a class has a byte-equal full signature (register count plus every op
// field, printed with %#v so no Stringer can hide one), and threads with
// equal full signatures share a class.
func TestCanonicalClassesAreExact(t *testing.T) {
	var progs []*litmus.Program
	for _, tc := range litmus.Suite() {
		progs = append(progs, tc.Prog, withTwin(tc.Prog))
	}
	for seed := int64(0); seed < 200; seed++ {
		progs = append(progs, randomProgram(seed))
	}
	for _, p := range progs {
		c, err := Canonicalize(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sig := func(ti int) string {
			th := c.Prog.Threads[ti]
			return fmt.Sprintf("%d %#v", th.NumRegs(), th.Ops)
		}
		classOf := map[int]int{}
		for ci, cl := range c.Classes {
			for _, ti := range cl {
				if _, dup := classOf[ti]; dup {
					t.Fatalf("%s: thread %d in two classes: %v", p.Name, ti, c.Classes)
				}
				classOf[ti] = ci
				if sig(ti) != sig(cl[0]) {
					t.Errorf("%s: class %v mixes threads %d and %d:\n%s\n%s", p.Name, cl, cl[0], ti, sig(cl[0]), sig(ti))
				}
			}
		}
		if len(classOf) != len(c.Prog.Threads) {
			t.Fatalf("%s: classes %v do not cover %d threads", p.Name, c.Classes, len(c.Prog.Threads))
		}
		for a := range c.Prog.Threads {
			for b := a + 1; b < len(c.Prog.Threads); b++ {
				if sig(a) == sig(b) && classOf[a] != classOf[b] {
					t.Errorf("%s: identical threads %d and %d split across classes %v", p.Name, a, b, c.Classes)
				}
			}
		}
	}
}

// TestCanonicalMutationsSeparate is the mutation test of canonicalization:
// starting from a program of two identical threads (one symmetry class),
// changing any single semantic field of one op of one thread must split
// the class and change the canonical key.
func TestCanonicalMutationsSeparate(t *testing.T) {
	build := func() *litmus.Program {
		p := litmus.New("twins")
		for _, name := range []string{"a", "b"} {
			th := p.Thread(name)
			r0 := th.Load("F", core.Unpaired)    // op 0
			r1 := th.LoadDep("X", r0, core.Data) // op 1
			th.WithGuards(litmus.NZ(r0), litmus.EQConst(r1, 1))
			th.Store("Y", 1, core.Data) // op 2
			th.EndGuards()
			th.CAS("Z", 0, 1, core.Paired)                                              // op 3
			th.Use(r1)                                                                  // op 4
			th.StoreExpr("X", litmus.Expr{Const: 2, Regs: []litmus.Reg{r1}}, core.Data) // op 5
		}
		return p
	}
	base, err := Canonicalize(build())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Classes, [][]int{{0, 1}}) {
		t.Fatalf("identical threads: classes %v, want [[0 1]]", base.Classes)
	}
	mutations := []struct {
		field string
		op    int
		edit  func(o *litmus.Op)
	}{
		{"Class", 0, func(o *litmus.Op) { o.Class = core.Paired }},
		{"AOp", 2, func(o *litmus.Op) { o.AOp = core.OpAdd }},
		{"Loc", 0, func(o *litmus.Op) { o.Loc = "Z" }},
		{"Dst", 3, func(o *litmus.Op) { o.Dst = litmus.NoReg }},
		{"Operand.Const", 2, func(o *litmus.Op) { o.Operand.Const = 2 }},
		{"Operand.Regs", 5, func(o *litmus.Op) { o.Operand.Regs = []litmus.Reg{0} }},
		{"Expected", 3, func(o *litmus.Op) { o.Expected.Const = 1 }},
		{"Guards[0]", 2, func(o *litmus.Op) { o.Guards[0].Op = litmus.GuardEQ }},
		{"Guards[1]", 2, func(o *litmus.Op) { o.Guards[1].B.Const = 2 }},
		{"AddrDeps", 1, func(o *litmus.Op) { o.AddrDeps = nil }},
		{"Cond", 4, func(o *litmus.Op) { o.Cond.Regs = []litmus.Reg{0} }},
	}
	for _, mu := range mutations {
		p := build()
		th := p.Threads[1]
		th.Ops = append([]litmus.Op(nil), th.Ops...)
		op := &th.Ops[mu.op]
		op.Guards = append([]litmus.Guard(nil), op.Guards...)
		mu.edit(op)
		c, err := Canonicalize(p)
		if err != nil {
			t.Fatalf("%s: %v", mu.field, err)
		}
		if reflect.DeepEqual(c.Classes, base.Classes) {
			t.Errorf("%s: mutated thread still shares a class with its twin: %v", mu.field, c.Classes)
		}
		if c.Key == base.Key {
			t.Errorf("%s: mutation left the canonical key unchanged", mu.field)
		}
	}
}
