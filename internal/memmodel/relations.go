package memmodel

import (
	"rats/internal/core"
	"rats/internal/litmus"

	"rats/internal/memmodel/rel"
)

// Relations bundles the per-execution relations of Sections 2.3 and 3.3:
// program order, the paper's conflict order (all conflicting accesses
// ordered by the SC total order T — a superset of Herd's co/rf/fr),
// synchronization order so1, happens-before hb1, and the derived
// program/conflict-graph reachability relations the non-ordering detector
// needs.
type Relations struct {
	N int
	// Core relations.
	PO       rel.Rel // program order
	Conflict rel.Rel // symmetric conflict (same loc, ≥1 write)
	CO       rel.Rel // conflict order: conflict ∩ (T-earlier × T-later)
	SO1      rel.Rel // synchronization order 1 (paired W → paired R)
	HB1      rel.Rel // happens-before-1 = (po ∪ so1)+
	Race     rel.Rel // symmetric: conflict, cross-thread, hb1-unordered

	// Program/conflict graph reachability.
	G      rel.Rel // po ∪ co (graph edges)
	Reach  rel.Rel // G* (reflexive)
	POPath rel.Rel // G* ; po ; G*  (paths containing ≥1 po edge)

	// Event sets.
	Present        []bool
	IsW, IsR       []bool
	IsAtomic, IsPU []bool // PU: paired or unpaired
	Class          []core.Class
	Observed       []bool // loaded value feeds a later dependency
	SameLoc        rel.Rel
	ValidPath      rel.Rel // hb1 ∪ homogeneous valid ordering paths
}

// Analyzer is a reusable race-analysis context: it owns every relation,
// bitset, and pair buffer BuildRelations and Analyze need, so repeated
// analyses of executions from the same program run with ~zero allocations
// per execution. The *Relations and *Analysis it returns borrow the
// arena: they are valid until the next BuildRelations/Analyze call on the
// same Analyzer. An Analyzer must not be used from multiple goroutines
// concurrently; the streaming CheckProgram pipeline gives each analysis
// worker its own.
type Analyzer struct {
	prog *litmus.Program
	lay  eventLayout
	n    int

	rels Relations

	// Scratch relations.
	tBefore  rel.Rel // T-earlier × T-later over present events
	invReach rel.Rel
	hEdges   rel.Rel // valid-path homogeneous edge set
	hStar    rel.Rel
	poRestr  rel.Rel
	tmp1     rel.Rel
	tmp2     rel.Rel
	dRel     rel.Rel // per-kind race relations
	cRel     rel.Rel
	nRel     rel.Rel
	qRel     rel.Rel
	sRel     rel.Rel

	// Scratch event sets.
	present    rel.Bits
	after      rel.Bits
	wBits      rel.Bits
	pwBits     rel.Bits // so1 sources (paired/release writes)
	prBits     rel.Bits // so1 targets (paired/acquire reads)
	atomicBits rel.Bits
	puBits     rel.Bits
	scr        rel.Bits
	threadBits []rel.Bits
	locBits    []rel.Bits
	classBits  []rel.Bits // indexed by core.Class; static per program
	// Static per-program event tables (event IDs are stable across
	// executions, so everything derivable from the static ops alone is
	// computed once in ensure): issuing thread and location index,
	// access-kind flags, and the candidate sets the per-execution loops
	// only need to mask with Present.
	evThread     []int
	evLoc        []int
	evWrites     []bool
	evReads      []bool
	evClass      []core.Class
	pwStatic     rel.Bits // paired/release writes
	prStatic     rel.Bits // paired/acquire reads
	puStatic     rel.Bits // paired or unpaired accesses
	atomicStatic rel.Bits
	// Observability precompute: obsAlways[id] marks events whose loaded
	// value feeds a later branch condition or guard of the thread (always
	// evaluated, so always observed when the event is present); obsUse[id]
	// lists the later same-thread events that use the destination register
	// in their address/data/expected inputs (observed only when that user
	// is itself present).
	obsAlways []bool
	obsUse    [][]int

	pairBuf  [][2]int
	analysis Analysis
}

// NewAnalyzer returns an empty analysis arena. It sizes itself lazily to
// the first program analyzed and re-sizes transparently when fed
// executions of a different program.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// ensure re-dimensions the arena for p's event layout. Repeated calls for
// the same program are pointer-compare cheap.
func (a *Analyzer) ensure(p *litmus.Program) {
	if a.prog == p {
		return
	}
	a.prog = p
	a.lay = layout(p)
	n := a.lay.n
	sameN := n == a.n
	a.n = n

	r := &a.rels
	r.N = n
	rels := [...]*rel.Rel{
		&r.PO, &r.Conflict, &r.CO, &r.SO1, &r.HB1, &r.Race,
		&r.G, &r.Reach, &r.POPath, &r.SameLoc, &r.ValidPath,
		&a.tBefore, &a.invReach, &a.hEdges, &a.hStar,
		&a.poRestr, &a.tmp1, &a.tmp2,
		&a.dRel, &a.cRel, &a.nRel, &a.qRel, &a.sRel,
	}
	if sameN {
		for _, rp := range rels {
			*rp = rp.Resized(n)
		}
	} else {
		// Dimension change (or first use): carve every relation from one
		// slab so arena setup costs one allocation, not one per relation.
		slab := rel.NewSlab(n, len(rels))
		for i, rp := range rels {
			*rp = slab[i]
		}
	}

	r.Present = boolBuf(r.Present, n)
	r.IsW = boolBuf(r.IsW, n)
	r.IsR = boolBuf(r.IsR, n)
	r.IsAtomic = boolBuf(r.IsAtomic, n)
	r.IsPU = boolBuf(r.IsPU, n)
	r.Observed = boolBuf(r.Observed, n)
	if cap(r.Class) < n {
		r.Class = make([]core.Class, n)
	}
	r.Class = r.Class[:n]

	if !sameN {
		bits := rel.MakeBitsSlab(n, 12)
		a.present, a.after, a.wBits, a.pwBits = bits[0], bits[1], bits[2], bits[3]
		a.prBits, a.atomicBits, a.puBits, a.scr = bits[4], bits[5], bits[6], bits[7]
		a.pwStatic, a.prStatic, a.puStatic, a.atomicStatic = bits[8], bits[9], bits[10], bits[11]
		a.threadBits = nil
		a.locBits = nil
		a.classBits = nil
	} else {
		a.pwStatic.Reset()
		a.prStatic.Reset()
		a.puStatic.Reset()
		a.atomicStatic.Reset()
	}
	if len(a.threadBits) != len(p.Threads) {
		a.threadBits = rel.MakeBitsSlab(n, len(p.Threads))
	}
	nc := 0
	for _, c := range core.Classes() {
		if int(c)+1 > nc {
			nc = int(c) + 1
		}
	}
	if len(a.classBits) != nc {
		a.classBits = rel.MakeBitsSlab(n, nc)
	} else {
		for c := range a.classBits {
			a.classBits[c].Reset()
		}
	}
	if nl := len(a.lay.locs); a.locBits == nil || len(a.locBits) < nl || !sameN {
		a.locBits = rel.MakeBitsSlab(n, nl)
	} else {
		a.locBits = a.locBits[:nl]
	}
	if cap(a.evThread) < n {
		a.evThread = make([]int, n)
		a.evLoc = make([]int, n)
	}
	a.evThread = a.evThread[:n]
	a.evLoc = a.evLoc[:n]
	a.evWrites = boolBuf(a.evWrites, n)
	a.evReads = boolBuf(a.evReads, n)
	if cap(a.evClass) < n {
		a.evClass = make([]core.Class, n)
	}
	a.evClass = a.evClass[:n]
	a.obsAlways = boolBuf(a.obsAlways, n)
	if cap(a.obsUse) < n {
		a.obsUse = make([][]int, n)
	}
	a.obsUse = a.obsUse[:n]
	for t, th := range p.Threads {
		for i := range th.Ops {
			op := &th.Ops[i]
			id := a.lay.id[t][i]
			if id < 0 {
				continue
			}
			a.evThread[id] = t
			a.evLoc[id] = a.lay.locID[t][i]
			a.evWrites[id] = op.Writes()
			a.evReads[id] = op.Reads()
			cls := op.Class
			a.evClass[id] = cls
			a.classBits[cls].Set(id)
			if cls.IsAtomic() {
				a.atomicStatic.Set(id)
			}
			if cls == core.Paired || cls == core.Unpaired {
				a.puStatic.Set(id)
			}
			if (cls == core.Paired || cls == core.Release) && op.Writes() {
				a.pwStatic.Set(id)
			}
			if (cls == core.Paired || cls == core.Acquire) && op.Reads() {
				a.prStatic.Set(id)
			}
			// Observability scan (the paper's Herd approximation): the
			// destination register feeds the address, data, or control
			// (branch/guard) inputs of a later instruction of the thread.
			// Branch conditions and guards are always evaluated, so those
			// uses observe unconditionally; other uses only count in
			// executions where the using op is present.
			a.obsAlways[id] = false
			a.obsUse[id] = a.obsUse[id][:0]
			if op.Dst == litmus.NoReg {
				continue
			}
			for j := i + 1; j < len(th.Ops); j++ {
				later := &th.Ops[j]
				if later.IsBranch {
					if later.Cond.DependsOn(op.Dst) {
						a.obsAlways[id] = true
						break
					}
					continue
				}
				if later.GuardUsesReg(op.Dst) {
					a.obsAlways[id] = true
					break
				}
				if later.UsesReg(op.Dst) {
					a.obsUse[id] = append(a.obsUse[id], a.lay.id[t][j])
				}
			}
		}
	}
}

// StaticTables is the per-program, execution-independent slice of the
// analysis arena: the event numbering, access-kind flags, class masks,
// synchronization candidate sets, and the observability precompute that
// ensure computes once per program. The solve backend reuses it as its
// constraint store — candidate race pairs and the static happens-before
// over-approximation are derived from these tables with the same
// word-parallel rel kernels the per-execution analysis uses, instead of
// being rebuilt per execution.
//
// The slices alias the arena: they are valid until the Analyzer is next
// fed a different program, and must not be mutated.
type StaticTables struct {
	// N is the event count; ID[t][i] is the event ID of thread t's op i
	// (-1 for branch markers).
	N  int
	ID [][]int
	// Thread and Loc give each event's issuing thread and location index
	// (into Locs); Writes/Reads/Class are the event's static access facts.
	Thread []int
	Loc    []int
	Locs   []litmus.Loc
	Writes []bool
	Reads  []bool
	Class  []core.Class
	// ClassBits[c] is the event set of class c; PW/PR are the so1 edge
	// candidates (paired/release writes, paired/acquire reads); Atomic is
	// the atomic event set.
	ClassBits []rel.Bits
	PW, PR    rel.Bits
	Atomic    rel.Bits
	// ObsAlways marks events whose loaded value feeds a later branch
	// condition or guard (observed whenever present); ObsUse lists the
	// later same-thread events whose address/data/expected inputs read
	// the destination register (observed only when that user is present).
	ObsAlways []bool
	ObsUse    [][]int
}

// Static re-dimensions the arena for p and exposes its static tables.
// Repeated calls for the same program are pointer-compare cheap.
func (a *Analyzer) Static(p *litmus.Program) StaticTables {
	a.ensure(p)
	return StaticTables{
		N:         a.n,
		ID:        a.lay.id,
		Thread:    a.evThread,
		Loc:       a.evLoc,
		Locs:      a.lay.locs,
		Writes:    a.evWrites,
		Reads:     a.evReads,
		Class:     a.evClass,
		ClassBits: a.classBits,
		PW:        a.pwStatic,
		PR:        a.prStatic,
		Atomic:    a.atomicStatic,
		ObsAlways: a.obsAlways,
		ObsUse:    a.obsUse,
	}
}

// boolBuf resizes a reusable []bool buffer.
func boolBuf(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// observedInto evaluates the precomputed observability scan against one
// execution's Present set. The analysis is execution-aware: an op skipped
// by a failed guard does not use its operand registers in that execution
// (the misspeculated seqlock read whose value is discarded), which is why
// obsUse entries are gated on the user's presence, while obsAlways
// (branch/guard uses) holds unconditionally.
func (a *Analyzer) observedInto(out []bool, ex *Execution) {
	for id := range out {
		o := false
		if ex.Present[id] {
			if a.obsAlways[id] {
				o = true
			} else {
				for _, u := range a.obsUse[id] {
					if ex.Present[u] {
						o = true
						break
					}
				}
			}
		}
		out[id] = o
	}
}

// BuildRelations computes all relations for one execution into a fresh
// arena. Callers analyzing many executions should allocate one Analyzer
// and use its BuildRelations method instead.
func BuildRelations(ex *Execution) *Relations {
	return NewAnalyzer().BuildRelations(ex)
}

// BuildRelations computes all relations for one execution in the
// analyzer's arena. The returned *Relations is valid until the next
// BuildRelations/Analyze call.
func (a *Analyzer) BuildRelations(ex *Execution) *Relations {
	a.ensure(ex.Prog)
	n := a.n
	r := &a.rels

	copy(r.Class, a.evClass)
	for i := 0; i < n; i++ {
		pres := ex.Present[i]
		r.Present[i] = pres
		r.IsW[i] = pres && a.evWrites[i]
		r.IsR[i] = pres && a.evReads[i]
		r.IsAtomic[i] = pres && a.atomicStatic.Has(i)
		r.IsPU[i] = pres && a.puStatic.Has(i)
	}
	a.observedInto(r.Observed, ex)

	// Event-set masks: present events per thread, per location, writers.
	a.present.Reset()
	a.wBits.Reset()
	for t := range a.threadBits {
		a.threadBits[t].Reset()
	}
	for l := range a.locBits {
		a.locBits[l].Reset()
	}
	for i := 0; i < n; i++ {
		if !ex.Present[i] {
			continue
		}
		a.present.Set(i)
		a.threadBits[a.evThread[i]].Set(i)
		a.locBits[a.evLoc[i]].Set(i)
		if a.evWrites[i] {
			a.wBits.Set(i)
		}
	}

	// Program order, same-location, conflict — one masked row per event:
	// po(i) = later present events of i's thread, sameloc(i) = present
	// events at i's location minus i, conflict(i) = sameloc(i) when i
	// writes, sameloc(i) ∩ writers otherwise.
	r.PO.ClearAll()
	r.SameLoc.ClearAll()
	r.Conflict.ClearAll()
	for i := 0; i < n; i++ {
		if !ex.Present[i] {
			continue
		}
		po := r.PO.Row(i)
		po.CopyFrom(a.threadBits[a.evThread[i]])
		po.KeepAbove(i)
		sl := r.SameLoc.Row(i)
		sl.CopyFrom(a.locBits[a.evLoc[i]])
		sl.Unset(i)
		cf := r.Conflict.Row(i)
		cf.CopyFrom(sl)
		if !r.IsW[i] {
			cf.AndIn(a.wBits)
		}
	}

	// Conflict order: conflicting accesses in T order. tBefore rows are
	// suffix sets of the total order, built in one reverse sweep.
	a.tBefore.ClearAll()
	a.after.Reset()
	for pos := len(ex.Order) - 1; pos >= 0; pos-- {
		id := ex.Order[pos]
		a.tBefore.Row(id).CopyFrom(a.after)
		a.after.Set(id)
	}
	r.CO.CopyFrom(r.Conflict)
	r.CO.InterIn(a.tBefore)

	// so1: paired write → paired read, conflicting, T-ordered. The
	// Section 7 extension classes participate: a release write
	// synchronizes with a paired/acquire read (sound on the simulated
	// multi-copy-atomic machine).
	a.pwBits.CopyFrom(a.pwStatic)
	a.pwBits.AndIn(a.present)
	a.prBits.CopyFrom(a.prStatic)
	a.prBits.AndIn(a.present)
	r.SO1.CrossIn(a.pwBits, a.prBits)
	r.SO1.InterIn(r.CO)

	// hb1 = (po ∪ so1)+.
	r.HB1.CopyFrom(r.PO)
	r.HB1.UnionIn(r.SO1)
	r.HB1.TransCloseIn()

	// Race: conflicting, different threads, hb1-unordered (symmetric).
	r.Race.ClearAll()
	for i := 0; i < n; i++ {
		if !ex.Present[i] {
			continue
		}
		row := r.Race.Row(i)
		row.CopyFrom(r.Conflict.Row(i))
		row.AndNotIn(a.threadBits[a.evThread[i]])
	}
	// Subtract hb1-ordered pairs in both orientations without
	// materializing hb1⁻¹: the word-parallel DiffIn removes the forward
	// orientation, and the reverse orientation of each ordered candidate
	// (a sparse set — cross-thread conflicting pairs only) is cleared
	// pointwise.
	a.tmp1.CopyFrom(r.Race)
	a.tmp1.InterIn(r.HB1)
	r.Race.DiffIn(r.HB1)
	a.tmp1.ForEach(func(i, j int) {
		r.Race.Clear(j, i)
	})

	// Program/conflict graph reachability.
	r.G.CopyFrom(r.PO)
	r.G.UnionIn(r.CO)
	r.Reach.CopyFrom(r.G)
	r.Reach.ReflTransCloseIn()
	a.tmp1.ComposeInto(r.Reach, r.PO)
	r.POPath.ComposeInto(a.tmp1, r.Reach)

	// Valid ordering paths (per Listing 7's operational encoding, which
	// resolves the prose definition): a valid path is an ordering path
	// (it contains a program-order edge) made entirely of hb1 edges
	// (po ∪ so1 — each individually enforced by the system), entirely of
	// same-location edges, or entirely of edges between paired/unpaired
	// accesses. Note it is the path's *edges* that must be in po ∪ so1 —
	// merely having hb1-ordered endpoints is NOT enough: a bare so1 edge
	// is not an ordering path, and crediting it would declare programs
	// legal whose non-ordering stores a compliant system can reorder into
	// non-SC results (found by the exhaustive theorem fuzzer).
	r.ValidPath.ClearAll()
	addVO := func(edges, restr rel.Rel) {
		if restr.Empty() {
			// The contribution hStar;restr;hStar is empty: skip the
			// closure and both compositions.
			return
		}
		a.hStar.CopyFrom(edges)
		a.hStar.ReflTransCloseIn()
		a.tmp1.ComposeInto(a.hStar, restr)
		a.tmp2.ComposeInto(a.tmp1, a.hStar)
		r.ValidPath.UnionIn(a.tmp2)
	}
	a.hEdges.CopyFrom(r.G)
	a.hEdges.InterIn(r.SameLoc)
	a.poRestr.CopyFrom(r.PO)
	a.poRestr.InterIn(r.SameLoc)
	addVO(a.hEdges, a.poRestr)
	a.puBits.CopyFrom(a.puStatic)
	a.puBits.AndIn(a.present)
	a.hEdges.CopyFrom(r.G)
	a.hEdges.RestrictToIn(a.puBits)
	a.poRestr.CopyFrom(r.PO)
	a.poRestr.RestrictToIn(a.puBits)
	addVO(a.hEdges, a.poRestr)
	a.hEdges.CopyFrom(r.PO)
	a.hEdges.UnionIn(r.SO1)
	addVO(a.hEdges, r.PO)

	return r
}
