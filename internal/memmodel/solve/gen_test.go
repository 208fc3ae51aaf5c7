package solve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel"
)

// wideProgram is the second differential generator. Unlike randomProgram
// (whose output the pinned seeds and fuzz corpus depend on, so it stays
// as is) it reaches every semantic field of an op: guards, CAS with
// constant or register expected values, branch markers with conditions,
// address dependencies and register operands, over three locations and
// up to four threads. Half the programs end with a twin of an earlier
// thread that differs in exactly one operand — the shape that breaks
// symmetry classes blind to operands.
func wideProgram(seed int64) *litmus.Program {
	rng := rand.New(rand.NewSource(seed))
	classes := core.Classes()
	locs := []litmus.Loc{"X", "Y", "Z"}
	rmws := []core.AtomicOp{core.OpInc, core.OpAdd, core.OpExchange, core.OpMax}
	p := litmus.New("wide")
	nThreads := 2 + rng.Intn(2)
	for t := 0; t < nThreads; t++ {
		th := p.Thread("t" + strconv.Itoa(t))
		var regs []litmus.Reg
		anyReg := func() litmus.Reg { return regs[rng.Intn(len(regs))] }
		nOps := 1 + rng.Intn(3)
		for i := 0; i < nOps; i++ {
			c := classes[rng.Intn(len(classes))]
			loc := locs[rng.Intn(len(locs))]
			if len(regs) > 0 && rng.Intn(3) == 0 {
				th.WithGuards(litmus.Guard{
					A: litmus.RegExpr(anyReg()), B: litmus.ConstExpr(int64(rng.Intn(2))),
					Op: litmus.GuardOp(rng.Intn(3)),
				})
			}
			switch rng.Intn(5) {
			case 0:
				regs = append(regs, th.Load(loc, c))
			case 1:
				if len(regs) > 0 {
					regs = append(regs, th.LoadDep(loc, anyReg(), c))
				} else {
					regs = append(regs, th.Load(loc, c))
				}
			case 2:
				e := litmus.ConstExpr(int64(rng.Intn(3)))
				if len(regs) > 0 && rng.Intn(2) == 0 {
					e.Regs = []litmus.Reg{anyReg()}
				}
				th.StoreExpr(loc, e, c)
			case 3:
				var expected litmus.Expr
				if len(regs) > 0 && rng.Intn(2) == 0 {
					expected = litmus.RegExpr(anyReg())
				}
				r := th.CAS(loc, int64(rng.Intn(2)), int64(1+rng.Intn(2)), c)
				if expected.Regs != nil {
					th.Ops[len(th.Ops)-1].Expected = expected
				}
				regs = append(regs, r)
			default:
				th.RMWDiscard(rmws[rng.Intn(len(rmws))], loc, int64(rng.Intn(3)), c)
			}
			th.EndGuards()
			if len(regs) > 0 && rng.Intn(3) == 0 {
				th.Branch(litmus.Expr{Const: int64(rng.Intn(2)), Regs: []litmus.Reg{anyReg()}})
			}
		}
	}
	if rng.Intn(2) == 0 {
		src := p.Threads[rng.Intn(len(p.Threads))]
		twin := p.Thread("twin")
		twin.Ops = append([]litmus.Op(nil), src.Ops...)
		twin.SetNumRegs(src.NumRegs())
		var writes []int
		for i, o := range twin.Ops {
			if o.Writes() {
				writes = append(writes, i)
			}
		}
		if len(writes) > 0 {
			twin.Ops[writes[rng.Intn(len(writes))]].Operand.Const++
		}
	}
	p.QuantumDomain = []int64{0, 1, 2}
	return p
}

// TestWideGeneratorReachesEveryField guards the generator itself: over
// the seeds the differential tests use, it must emit every op field the
// semantics reads, and twins.
func TestWideGeneratorReachesEveryField(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < wideSeeds(); seed++ {
		p := wideProgram(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(p.Threads) == 4 {
			seen["4 threads"] = true
		}
		for _, th := range p.Threads {
			if th.Name == "twin" {
				seen["twin"] = true
			}
			for _, o := range th.Ops {
				seen["guards"] = seen["guards"] || len(o.Guards) > 0
				seen["branch cond"] = seen["branch cond"] || o.IsBranch && len(o.Cond.Regs) > 0
				seen["addr deps"] = seen["addr deps"] || len(o.AddrDeps) > 0
				seen["cas expected reg"] = seen["cas expected reg"] || o.AOp == core.OpCAS && len(o.Expected.Regs) > 0
				seen["reg operand"] = seen["reg operand"] || len(o.Operand.Regs) > 0
				seen["loc Z"] = seen["loc Z"] || !o.IsBranch && o.Loc == "Z"
			}
		}
	}
	for _, f := range []string{"4 threads", "twin", "guards", "branch cond", "addr deps", "cas expected reg", "reg operand", "loc Z"} {
		if !seen[f] {
			t.Errorf("wideProgram never emits %s", f)
		}
	}
}

// wideSeeds is how many wideProgram seeds the deterministic tests sweep
// (fewer in -short mode, which the race-detector job uses).
func wideSeeds() int64 {
	if testing.Short() {
		return 30
	}
	return 150
}

// TestSolveMatchesEnumerateWide is the solver's differential check on
// wideProgram: verdicts must equal enumeration's on every seed and model
// the enumerator finishes.
func TestSolveMatchesEnumerateWide(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < wideSeeds(); seed++ {
		for _, m := range models {
			if checkSolveMatches(t, wideProgram(seed), m, seed, wideLimit) {
				checked++
			}
		}
	}
	t.Logf("%d of %d checks within the enumeration limit", checked, int(wideSeeds())*len(models))
}

// wideLimit bounds the executions a wideProgram check enumerates: the
// generator's four-thread programs can reach the default limit, and
// spending seconds per input to find that out stalls fuzzing.
const wideLimit = 50_000

// checkSolveMatches fails t when the solver's verdict on p under m
// differs from enumeration's. It reports false, checking nothing, when
// enumeration cannot finish within limit executions (0 = the default).
func checkSolveMatches(t *testing.T, p *litmus.Program, m core.Model, seed int64, limit int) bool {
	t.Helper()
	opts := memmodel.CheckOptions{Limit: limit}
	want, err := memmodel.CheckProgramWith(p, m, opts)
	if errors.Is(err, memmodel.ErrLimit) {
		return false
	}
	if err != nil {
		t.Fatalf("seed %d/%s enumerate: %v", seed, m, err)
	}
	got, err := Check(p, m, opts)
	if err != nil {
		t.Fatalf("seed %d/%s: solve failed where enumerate succeeded: %v", seed, m, err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Errorf("seed %d/%s %s: solver diverges\n got: %+v\nwant: %+v", seed, m, p.Name, got, want)
	}
	return true
}

// TestPORMatchesNaiveWide is the partial-order reduction's differential
// check on wideProgram: the reduced enumerator must produce exactly the
// naive enumerator's set of execution signatures (final state, reads-from,
// presence, registers, per-event values and race verdicts), on the raw
// program and its DRFrlx quantum-equivalent form.
func TestPORMatchesNaiveWide(t *testing.T) {
	const limit = 5_000
	checked := 0
	for seed := int64(0); seed < wideSeeds(); seed++ {
		p := wideProgram(seed)
		for _, quantum := range []bool{false, true} {
			q := p
			if quantum {
				q = p.Under(core.DRFrlx)
			}
			naive, err := memmodel.Enumerate(q, memmodel.EnumOptions{Quantum: quantum, Naive: true, Limit: limit})
			if errors.Is(err, memmodel.ErrLimit) {
				continue
			}
			if err != nil {
				t.Fatalf("seed %d naive: %v", seed, err)
			}
			por, err := memmodel.Enumerate(q, memmodel.EnumOptions{Quantum: quantum})
			if err != nil {
				t.Fatalf("seed %d por: %v", seed, err)
			}
			checked++
			ns, ps := signatures(naive), signatures(por)
			if len(ns) != len(ps) {
				t.Errorf("seed %d quantum=%t: naive has %d signatures, POR %d", seed, quantum, len(ns), len(ps))
			}
			for sig := range ns {
				if !ps[sig] {
					t.Errorf("seed %d quantum=%t: naive signature missing from POR:\n%s", seed, quantum, sig)
					break
				}
			}
		}
	}
	t.Logf("%d of %d programs within the naive limit", checked, 2*wideSeeds())
}

// signatures fingerprints each execution by everything invariant under
// reordering commuting accesses.
func signatures(execs []*memmodel.Execution) map[string]bool {
	out := map[string]bool{}
	an := memmodel.NewAnalyzer()
	for _, ex := range execs {
		sig := fmt.Sprintf("%s|rf=%v|present=%v|regs=%v", ex.ResultKey(), ex.RF, ex.Present, ex.Regs)
		for _, ev := range ex.Events {
			sig += fmt.Sprintf("|%d:%d,%d,%t", ev.ID, ev.Loaded, ev.Stored, ev.Randomized)
		}
		sig += fmt.Sprint(an.Analyze(ex).Races)
		out[sig] = true
	}
	return out
}
