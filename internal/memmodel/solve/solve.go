// Package solve is the constraint-solving backend behind
// CheckOptions.Mode "solve": instead of enumerating every SC execution
// and classifying races per execution, it treats the check as a
// constraint problem over the static event tables of the analysis arena
// and solves for racy executions.
//
// The pipeline has three phases:
//
//  1. Static propagation (solve.static): candidate race pairs — cross
//     thread, same location, at least one write — are derived from the
//     Present-masked static tables the PR 5 arena already computes,
//     using the same word-parallel rel kernels the per-execution
//     analysis uses. A static happens-before over-approximation
//     maxHB = (po ∪ pw×pr∩sameloc)⁺ then splits every per-kind
//     candidate three ways: pairs whose race conditions hold in every
//     execution are implied (unit propagation), pairs whose kind
//     conditions can never hold are refuted (conflicts), and the
//     residue stays undecided.
//  2. Confirmation search (solve.search): only when undecided pairs
//     remain, a sequential POR enumeration runs with an early-stop
//     visitor — each confirmed pair is closed under the program's
//     thread automorphisms (symmetry reduction: identical threads
//     confirm each other's orbits), and the search stops as soon as
//     every undecided pair is confirmed. If it instead runs to
//     exhaustion, the verdict is still exact (the POR union equals the
//     full union) and the visited executions double as the SC result
//     set.
//  3. State search (solve.states): the SC result set, when phase 2 did
//     not already produce it, comes from memmodel.ExploreSC — the
//     system model's memoized explorer run with order = program order,
//     quantum value choices, and memo keys canonicalized under the
//     thread-symmetry classes of memmodel.Canonicalize. Its counters
//     map onto DPLL vocabulary (branching states, forced moves, memo
//     hits, memoized states).
//
// The backend is verdict-only and exact: it reports precisely the
// race pairs and SC results the enumerator would, byte-identical after
// canonical-namespace rewriting, while heavily contended programs whose
// interleaving count is intractable resolve statically or stop early.
// The enumerator remains the differential oracle (FuzzSolveMatchesEnumerate).
package solve

import (
	"fmt"
	"sort"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/rel"
	"rats/internal/memmodel/telemetry"
)

func init() {
	memmodel.RegisterSolveBackend(Check)
}

// Check runs the solve backend directly. Callers normally go through
// memmodel.CheckProgramWith with CheckOptions.Mode set to ModeSolve
// (importing this package registers the backend); the direct entry
// serves tests and tools that want the solver unconditionally.
func Check(p0 *litmus.Program, m core.Model, opts memmodel.CheckOptions) (*memmodel.Verdict, error) {
	// Solving on the canonical program realizes variable-symmetry
	// reduction (thread order and location names are normalized away);
	// the verdict is rewritten back into the submitter's namespace at
	// the end. The canonical program is freshly built per call, so
	// renaming it lets inner search errors name the submitted program.
	can, err := memmodel.Canonicalize(p0)
	if err != nil {
		return nil, err
	}
	can.Prog.Name = p0.Name
	p := can.Prog.Under(m)

	tel := opts.Telemetry
	effLimit := opts.Limit
	if effLimit == 0 {
		effLimit = memmodel.DefaultLimit
	}
	tel.Begin(int64(effLimit))
	if opts.Ctx != nil {
		if cerr := opts.Ctx.Err(); cerr != nil {
			tel.Finish(telemetry.StateStopped)
			return nil, &memmodel.CancelError{Prog: p.Name, Phase: "solve", Err: cerr}
		}
	}
	sp := opts.Span

	an := memmodel.NewAnalyzer()
	stSpan := sp.Child("solve.static")
	cs := buildConstraints(an, p, m, can.Classes)
	stSpan.SetInt("implied", cs.nImplied)
	stSpan.SetInt("refuted", cs.nRefuted)
	stSpan.SetInt("undecided", cs.nUndecided)
	stSpan.End()

	// Phase 2: confirmation search for the undecided residue. The
	// visitor collects SC result keys as it goes: if the search runs to
	// exhaustion (no early stop), those keys are the full SC result set
	// and phase 3 is skipped.
	execs := 0
	var scResults map[string]bool
	exhaustive := false
	if cs.nUndecided > 0 {
		se := sp.Child("solve.search")
		tel.SetSpan(se)
		collected := map[string]bool{}
		stopped := false
		eo := memmodel.EnumOptions{
			Quantum: true, Sequential: true,
			Limit: opts.Limit, Ctx: opts.Ctx,
			TransitionLimit: opts.TransitionLimit,
			Telemetry:       tel,
			Visit: func(ex *memmodel.Execution) error {
				execs++
				collected[ex.ResultKey()] = true
				a := an.Analyze(ex)
				for _, k := range cs.kinds {
					if len(cs.undecided[k]) == 0 {
						continue
					}
					for _, pr := range a.Races[k] {
						cs.confirm(k, pr)
					}
				}
				if cs.nUndecided == 0 {
					stopped = true
					return memmodel.ErrStop
				}
				return nil
			},
		}
		_, serr := memmodel.Enumerate(p, eo)
		tel.SetSpan(nil)
		se.SetInt("executions", int64(execs))
		se.SetInt("confirmed", cs.nConfirmed)
		se.End()
		if serr != nil {
			tel.Finish(memmodel.StateForErr(serr))
			return nil, serr
		}
		if !stopped {
			scResults = collected
			exhaustive = true
		}
	}

	// Phase 3: memoized state search for the SC result set.
	var st memmodel.ExploreStats
	if !exhaustive {
		ss := sp.Child("solve.states")
		var serr error
		scResults, st, serr = memmodel.ExploreSC(p, can.Classes, opts)
		ss.SetInt("states", st.States)
		ss.SetInt("memo_hits", st.MemoHits)
		ss.End()
		if serr != nil {
			tel.Finish(memmodel.StateForErr(serr))
			return nil, serr
		}
	}
	tel.AddSolve(st.Decisions, st.Propagations+cs.nImplied, st.MemoHits+cs.nRefuted, st.States)

	v := &memmodel.Verdict{
		Model: m, Legal: true,
		Races:     map[memmodel.RaceKind][]string{},
		SCResults: scResults,
		Execs:     execs,
	}
	var distinct int64
	for _, k := range cs.kinds {
		pairs := append(cs.implied[k], cs.confirmed[k]...)
		if len(pairs) == 0 {
			continue
		}
		descs := make([]string, 0, len(pairs))
		for _, pr := range pairs {
			descs = append(descs, cs.desc(pr))
		}
		sort.Strings(descs)
		v.Races[k] = descs
		v.Legal = false
		distinct += int64(len(descs))
	}
	tel.SetUnion(distinct, distinct, int64(len(scResults)))
	out := can.RewriteVerdict(v, p0.Name)
	tel.Finish(telemetry.StateDone)
	return out, nil
}

// constraints is the solver's static decision state: per race kind, the
// candidate pairs split into implied (race in every execution), refuted
// (race in no execution), and undecided (needs the confirmation search).
type constraints struct {
	kinds []memmodel.RaceKind

	// Event tables for descriptions and orbit closure. thread/class
	// alias the analyzer arena (valid while the program is unchanged);
	// id is the arena's thread-major event numbering.
	thread []int
	opIdx  []int
	class  []core.Class
	id     [][]int

	// Thread-symmetry classes (Canonical.Classes): threads with
	// identical op lists are interchangeable by a program automorphism,
	// so a confirmed race pair confirms its whole orbit.
	classOf      []int
	classThreads [][]int

	implied   map[memmodel.RaceKind][][2]int
	confirmed map[memmodel.RaceKind][][2]int
	undecided map[memmodel.RaceKind]map[[2]int]bool

	nImplied, nRefuted, nUndecided, nConfirmed int64
}

// desc renders a pair exactly as the enumeration pipeline's
// partialVerdict does; event IDs are thread-major, so i < j already is
// the canonical (thread, opIndex)-lexicographic orientation.
func (cs *constraints) desc(pr [2]int) string {
	i, j := pr[0], pr[1]
	return fmt.Sprintf("T%d.%d(%s)~T%d.%d(%s)",
		cs.thread[i], cs.opIdx[i], cs.class[i],
		cs.thread[j], cs.opIdx[j], cs.class[j])
}

// confirm moves a witnessed pair (and its thread-symmetry orbit) from
// undecided to confirmed. Identical threads induce program
// automorphisms, and the union race set is automorphism-closed, so one
// witness confirms every image of the pair under permutations of its
// endpoints' thread classes.
func (cs *constraints) confirm(k memmodel.RaceKind, pr [2]int) {
	und := cs.undecided[k]
	if und == nil || !und[pr] {
		return
	}
	i, j := pr[0], pr[1]
	t1, o1 := cs.thread[i], cs.opIdx[i]
	t2, o2 := cs.thread[j], cs.opIdx[j]
	for _, a := range cs.classThreads[cs.classOf[t1]] {
		for _, b := range cs.classThreads[cs.classOf[t2]] {
			if a == b {
				continue
			}
			x, y := cs.id[a][o1], cs.id[b][o2]
			if x > y {
				x, y = y, x
			}
			q := [2]int{x, y}
			if und[q] {
				delete(und, q)
				cs.nUndecided--
				cs.nConfirmed++
				cs.confirmed[k] = append(cs.confirmed[k], q)
			}
		}
	}
}

// buildConstraints computes the static constraint store for p under m:
// the per-kind candidate pairs and their implied/refuted/undecided
// split. It reuses the analyzer arena's static tables as-is and builds
// the candidate and ordering relations with the rel kernels.
func buildConstraints(an *memmodel.Analyzer, p *litmus.Program, m core.Model, classes [][]int) *constraints {
	st := an.Static(p)
	n := st.N
	nT := len(p.Threads)

	cs := &constraints{
		thread:       st.Thread,
		class:        st.Class,
		id:           st.ID,
		implied:      map[memmodel.RaceKind][][2]int{},
		confirmed:    map[memmodel.RaceKind][][2]int{},
		undecided:    map[memmodel.RaceKind]map[[2]int]bool{},
		classOf:      make([]int, nT),
		classThreads: classes,
	}
	for ci, ts := range classes {
		for _, t := range ts {
			cs.classOf[t] = ci
		}
	}
	cs.kinds = []memmodel.RaceKind{memmodel.DataRace}
	if m == core.DRFrlx {
		cs.kinds = memmodel.RaceKinds()
	}

	// Per-event op facts the kind conditions need: op index, guard-free
	// presence (threads run to completion, so guards are the only
	// absence source), and the pairwise-commutativity inputs (Analyze
	// passes Operand.Const regardless of registers, so the mirror here
	// is exact, not an approximation).
	cs.opIdx = make([]int, n)
	always := make([]bool, n)
	aop := make([]core.AtomicOp, n)
	operand := make([]int64, n)
	for t := range p.Threads {
		ops := p.Threads[t].Ops
		for oi := range ops {
			op := &ops[oi]
			id := st.ID[t][oi]
			if id < 0 {
				continue
			}
			cs.opIdx[id] = oi
			always[id] = len(op.Guards) == 0
			aop[id] = op.AOp
			operand[id] = op.Operand.Const
		}
	}

	// Static event-set masks and relations, mirroring BuildRelations'
	// per-execution construction without the Present mask.
	threadSets := rel.MakeBitsSlab(n, nT)
	locSets := rel.MakeBitsSlab(n, len(st.Locs))
	for i := 0; i < n; i++ {
		threadSets[st.Thread[i]].Set(i)
		locSets[st.Loc[i]].Set(i)
	}
	writes := rel.BitsFromBools(st.Writes)
	rels := rel.NewSlab(n, 6)
	sameLoc, cand, maxHB, unord, tmp, kindRel := rels[0], rels[1], rels[2], rels[3], rels[4], rels[5]
	for i := 0; i < n; i++ {
		sl := sameLoc.Row(i)
		sl.CopyFrom(locSets[st.Loc[i]])
		sl.Unset(i)
		// Candidate: conflicting (same loc, ≥1 write) and cross-thread.
		cr := cand.Row(i)
		cr.CopyFrom(sl)
		if !st.Writes[i] {
			cr.AndIn(writes)
		}
		cr.AndNotIn(threadSets[st.Thread[i]])
		// Static program order: later events of i's thread.
		pr := maxHB.Row(i)
		pr.CopyFrom(threadSets[st.Thread[i]])
		pr.KeepAbove(i)
	}
	// maxHB = (po ∪ (pw × pr ∩ sameloc))⁺ over-approximates hb1 of every
	// execution: execution po rows are Present-masked subsets of the
	// static rows, and so1 ⊆ pw×pr ∩ CO ⊆ pw×pr ∩ sameloc. Hence pairs
	// unordered by maxHB are hb1-unordered — i.e. they race — in every
	// execution in which both events are present.
	tmp.CrossIn(st.PW, st.PR)
	tmp.InterIn(sameLoc)
	maxHB.UnionIn(tmp)
	maxHB.TransCloseIn()
	unord.CopyFrom(cand)
	tmp.CopyFrom(cand)
	tmp.InterIn(maxHB)
	unord.DiffIn(maxHB)
	tmp.ForEach(func(i, j int) { unord.Clear(j, i) })

	// Kind observability mirrors of relations.go's observedInto:
	// possiblyObs(x) — the loaded value can be observed in some
	// execution; obsAlways(x) — it is observed in every execution.
	possiblyObs := func(x int) bool {
		return st.Reads[x] && (st.ObsAlways[x] || len(st.ObsUse[x]) > 0)
	}
	obsAlways := func(x int) bool {
		if !st.Reads[x] || !always[x] {
			return false
		}
		if st.ObsAlways[x] {
			return true
		}
		for _, u := range st.ObsUse[x] {
			if always[u] {
				return true
			}
		}
		return false
	}

	for _, k := range cs.kinds {
		switch k {
		case memmodel.DataRace:
			kindRel.InterAloInto(cand, st.ClassBits[core.Data])
		case memmodel.CommutativeRace:
			kindRel.InterAloInto(cand, st.ClassBits[core.Commutative])
		case memmodel.NonOrderingRace:
			kindRel.InterAloInto(cand, st.ClassBits[core.NonOrdering])
			kindRel.RestrictToIn(st.Atomic)
		case memmodel.QuantumRace:
			kindRel.InterAloInto(cand, st.ClassBits[core.Quantum])
			tmp.CrossIn(st.ClassBits[core.Quantum], st.ClassBits[core.Quantum])
			kindRel.DiffIn(tmp)
		case memmodel.SpeculativeRace:
			kindRel.InterAloInto(cand, st.ClassBits[core.Speculative])
		}
		kindRel.ForEach(func(i, j int) {
			if i >= j {
				return
			}
			// guaranteed: both events present and racing in every
			// execution — the precondition for implying a pair.
			guaranteed := always[i] && always[j] && unord.Has(i, j)
			switch k {
			case memmodel.DataRace, memmodel.QuantumRace:
				// No extra dynamic condition beyond being a race.
				if guaranteed {
					cs.imply(k, i, j)
				} else {
					cs.defer_(k, i, j)
				}
			case memmodel.CommutativeRace:
				pairwise := core.Commutes(aop[i], operand[i], aop[j], operand[j])
				switch {
				case pairwise && !possiblyObs(i) && !possiblyObs(j):
					// Commutative and never observed: not a
					// commutative race in any execution.
					cs.nRefuted++
				case guaranteed && (!pairwise || obsAlways(i) || obsAlways(j)):
					cs.imply(k, i, j)
				default:
					cs.defer_(k, i, j)
				}
			case memmodel.SpeculativeRace:
				bothW := st.Writes[i] && st.Writes[j]
				switch {
				case !bothW && !possiblyObs(i) && !possiblyObs(j):
					cs.nRefuted++
				case guaranteed && (bothW || obsAlways(i) || obsAlways(j)):
					cs.imply(k, i, j)
				default:
					cs.defer_(k, i, j)
				}
			case memmodel.NonOrderingRace:
				// The non-ordering condition (a CO-oriented edge
				// carrying unique ordering responsibility, minus the
				// per-execution data/commutative overlap) is inherently
				// dynamic: never implied, decided by confirmation.
				cs.defer_(k, i, j)
			}
		})
	}
	return cs
}

// imply records a pair proven to race in every execution.
func (cs *constraints) imply(k memmodel.RaceKind, i, j int) {
	cs.implied[k] = append(cs.implied[k], [2]int{i, j})
	cs.nImplied++
}

// defer_ records a pair the static split cannot decide.
func (cs *constraints) defer_(k memmodel.RaceKind, i, j int) {
	if cs.undecided[k] == nil {
		cs.undecided[k] = map[[2]int]bool{}
	}
	cs.undecided[k][[2]int{i, j}] = true
	cs.nUndecided++
}
