package memmodel

import (
	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/rel"
	"rats/internal/memmodel/telemetry"
)

// The system-centric model (Section 3.8): it enumerates every execution a
// straightforward compliant DRFrlx system may produce. The system
// preserves, per thread:
//
//   - per-location program order (per-location SC / cache coherence),
//   - syntactic address/data/control dependencies,
//   - paired-read → anything-later (acquire),
//   - anything-earlier → paired-write (release),
//   - program order between paired/unpaired atomics (successive unpaired
//     accesses occur in program order),
//
// and reorders everything else freely. Executions are total orders
// consistent with this preserved program order, with loads reading the
// latest store. Comparing the reachable final states against the SC
// states of the quantum-equivalent program validates Theorem 3.1 on
// litmus tests.

// PreservedPO computes the preserved-program-order relation over a
// program's events under the given model's effective labelling.
func PreservedPO(p *litmus.Program) rel.Rel {
	lay := layout(p)
	ppo := rel.New(lay.n)
	for t, th := range p.Threads {
		// defs[r] = op index that defined register r; ctrls lists the
		// defining ops of every branch seen so far, which all later ops
		// are control-dependent on.
		defs := map[litmus.Reg]int{}
		var ctrls []int
		for i, op := range th.Ops {
			if op.IsBranch {
				for _, rg := range op.Cond.Regs {
					if d, ok := defs[rg]; ok {
						ctrls = append(ctrls, d)
					}
				}
				continue
			}
			idI := lay.id[t][i]
			// Dependencies: operand/expected/address/guard registers.
			depRegs := [][]litmus.Reg{op.Operand.Regs, op.Expected.Regs, op.AddrDeps}
			for _, g := range op.Guards {
				depRegs = append(depRegs, g.Regs())
			}
			for _, regs := range depRegs {
				for _, rg := range regs {
					if d, ok := defs[rg]; ok {
						ppo.Set(lay.id[t][d], idI)
					}
				}
			}
			// Control dependencies from earlier branches.
			for _, d := range ctrls {
				ppo.Set(lay.id[t][d], idI)
			}
			// Ordering against earlier memory ops.
			for j := 0; j < i; j++ {
				pj := th.Ops[j]
				if pj.IsBranch {
					continue
				}
				idJ := lay.id[t][j]
				switch {
				case pj.Loc == op.Loc:
					// Per-location SC.
					ppo.Set(idJ, idI)
				case (pj.Class == core.Paired || pj.Class == core.Acquire) && pj.Reads():
					// Acquire: the read is ordered before all later ops.
					ppo.Set(idJ, idI)
				case (op.Class == core.Paired || op.Class == core.Release) && op.Writes():
					// Release: all earlier ops ordered before the write.
					ppo.Set(idJ, idI)
				case isOrderedAtomic(pj.Class) && isOrderedAtomic(op.Class):
					// Paired/unpaired (and acquire/release) atomics
					// respect program order among themselves.
					ppo.Set(idJ, idI)
				}
			}
			if op.Dst != litmus.NoReg {
				defs[op.Dst] = i
			}
		}
	}
	return ppo
}

// isOrderedAtomic reports whether a class keeps program order with other
// atomics (overlap at most atomic-serial).
func isOrderedAtomic(c core.Class) bool {
	return c == core.Paired || c == core.Unpaired || c == core.Acquire || c == core.Release
}

// SystemResults enumerates every final memory state a straightforward
// DRFrlx system may produce for the program (quantum accesses execute
// with their real values — this models the machine, not the
// quantum-equivalent program). limit bounds the number of explored
// executions (0 = DefaultLimit).
func SystemResults(p *litmus.Program, limit int) (map[string]bool, error) {
	return SystemResultsWith(p, limit, nil)
}

// SystemResultsWith is SystemResults with instrumentation: the telemetry
// check (nil = disabled) counts completed system executions, memoized
// states (as transitions), and seen-state memo hits, and is marked
// Begin/Finish around the search.
//
// The search is the machine's explorer with order = PreservedPO and no
// thread symmetry: memoizing on (done set, memory, registers) collapses
// the factorially redundant interleavings of commuting prefixes, which
// is what makes the exhaustive theorem fuzzer run without an
// execution-count escape hatch.
func SystemResultsWith(p *litmus.Program, limit int, tel *telemetry.Check) (map[string]bool, error) {
	if err := p.Validate(); err != nil {
		tel.Begin(int64(limit))
		tel.Finish(telemetry.StateFailed)
		return nil, err
	}
	if limit == 0 {
		limit = DefaultLimit
	}
	tel.Begin(int64(limit))
	x := newExplorer(p, PreservedPO(p), false, nil)
	x.phase, x.limit, x.tel = "system model", limit, tel
	if x.step(); x.err != nil {
		tel.Finish(telemetry.StateLimit)
		return nil, x.err
	}
	tel.Finish(telemetry.StateDone)
	return x.results, nil
}

// TheoremReport is the outcome of validating Theorem 3.1 on one program:
// whether every result the system model can produce is an SC result of
// the quantum-equivalent program.
type TheoremReport struct {
	Prog string
	// Legal is the DRFrlx verdict of the programmer-centric model.
	Legal bool
	// SystemSC reports whether system results ⊆ SC(quantum-equivalent)
	// results.
	SystemSC bool
	// NonSCResults lists system-producible results outside the SC set.
	NonSCResults []string
	SystemCount  int
	SCCount      int
}

// ValidateTheorem runs both models on a program under DRFrlx and compares
// result sets. Theorem 3.1 requires SystemSC whenever Legal.
func ValidateTheorem(p *litmus.Program) (*TheoremReport, error) {
	return ValidateTheoremWith(p, CheckOptions{}, nil)
}

// ValidateTheoremWith is ValidateTheorem with instrumentation: opts
// configures (and may instrument) the programmer-centric check, while
// sysTel instruments the system-model search as its own telemetry check.
func ValidateTheoremWith(p *litmus.Program, opts CheckOptions, sysTel *telemetry.Check) (*TheoremReport, error) {
	verdict, err := CheckProgramWith(p, core.DRFrlx, opts)
	if err != nil {
		return nil, err
	}
	sys, err := SystemResultsWith(p.Under(core.DRFrlx), opts.Limit, sysTel)
	if err != nil {
		return nil, err
	}
	rep := &TheoremReport{
		Prog: p.Name, Legal: verdict.Legal, SystemSC: true,
		SystemCount: len(sys), SCCount: len(verdict.SCResults),
	}
	for k := range sys {
		if !verdict.SCResults[k] {
			rep.SystemSC = false
			rep.NonSCResults = append(rep.NonSCResults, k)
		}
	}
	return rep, nil
}
