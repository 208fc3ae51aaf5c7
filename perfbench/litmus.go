package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rats/internal/core"
	"rats/internal/harness"
	"rats/internal/litmus"
	"rats/internal/memmodel"
	"rats/internal/memmodel/solve"
	"rats/internal/memmodel/telemetry"
)

// checkList is litmus-suite's input: the seeded contended family, largest
// shape first, then the catalog, each with its source text and, for
// generated programs, the construction's reference. The order is fixed:
// the sweep hands cases to workers in list order, so a seeded order would
// change how long the last worker runs alone, and with it wall_s.
type checkList struct {
	cases []litmus.Case
	srcs  []string
	refs  []*genCase // nil for catalog programs
}

func newCheckList(seed int64) (*checkList, error) {
	fam := contendedFamily(seed)
	cl := &checkList{}
	for i := len(fam) - 1; i >= 0; i-- {
		g := &fam[i]
		cl.cases = append(cl.cases, litmus.Case{Prog: g.prog, Legal: [3]bool{g.legal, g.legal, g.legal}})
		cl.refs = append(cl.refs, g)
	}
	for _, tc := range litmus.Suite() {
		cl.cases = append(cl.cases, tc)
		cl.refs = append(cl.refs, nil)
	}
	for _, tc := range cl.cases {
		src := litmus.Format(tc.Prog)
		if _, err := litmus.Parse(src); err != nil {
			return nil, fmt.Errorf("%s does not round-trip: %w", tc.Prog.Name, err)
		}
		cl.srcs = append(cl.srcs, src)
	}
	return cl, nil
}

// verdictOK compares a verdict with the case's expected legality and,
// for a generated program, its exact SC final states.
func verdictOK(v *memmodel.Verdict, tc litmus.Case, ref *genCase, m core.Model) bool {
	if v == nil || v.Legal != tc.Legal[m] {
		return false
	}
	return ref == nil || sameSet(v.SCResults, ref.sc)
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func modeName(m memmodel.Mode) string {
	if m == memmodel.ModeEnumerate {
		return "enumerate"
	}
	return string(m)
}

// scoreCase counts a sweep case's model checks and its Theorem 3.1
// validation. Only the enumeration backend is vouched for: a solve-mode
// mismatch is a failed operation but leaves the run correct (README).
func scoreCase(t *tally, cr harness.LitmusCaseResult, ref *genCase, mode memmodel.Mode) {
	vouched := mode == memmodel.ModeEnumerate
	for i, m := range core.Models() {
		var v *memmodel.Verdict
		if i < len(cr.Verdicts) {
			v = cr.Verdicts[i]
		}
		t.op(cr.Err == nil && verdictOK(v, cr.Case, ref, m), vouched,
			fmt.Sprintf("%s %s (%s): %v", cr.Case.Prog.Name, m, modeName(mode), cr.Err))
	}
	th := cr.Theorem
	t.op(th != nil && th.Legal == cr.Case.Legal[core.DRFrlx] && (!th.Legal || th.SystemSC), vouched,
		fmt.Sprintf("%s theorem 3.1 (%s): %v", cr.Case.Prog.Name, modeName(mode), cr.Err))
}

func runLitmus(r *run, t *tally) (map[string]float64, error) {
	var cl *checkList
	// Set-up: build the check list and warm both backends on it once
	// (unscored), five times.
	setups, err := timeIt(5, func(int) error {
		var err error
		if cl, err = newCheckList(r.seed); err != nil {
			return err
		}
		for _, mode := range []memmodel.Mode{memmodel.ModeEnumerate, memmodel.ModeSolve} {
			// Warm-up only: the measured passes score every check.
			_, _ = harness.LitmusSweep(cl.cases, harness.LitmusSweepOptions{Workers: r.workers, Check: memmodel.CheckOptions{Mode: mode}})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One pass: the default ratslitmus sweep, then the same list with
	// Mode solve. Per-check latency comes from each check's telemetry.
	plainUnit := func() (unitStats, error) {
		t0 := time.Now()
		var u unitStats
		var keep [][]harness.LitmusCaseResult
		for _, mode := range []memmodel.Mode{memmodel.ModeEnumerate, memmodel.ModeSolve} {
			reg := telemetry.NewRegistry()
			res, _ := harness.LitmusSweep(cl.cases, harness.LitmusSweepOptions{
				Workers: r.workers,
				Check:   memmodel.CheckOptions{Mode: mode},
				Run:     &harness.RunOptions{Checks: reg},
			})
			for i, cr := range res {
				scoreCase(t, cr, cl.refs[i], mode)
				for _, c := range cr.Checks {
					u.latencies = append(u.latencies, c.Snapshot().ElapsedMs)
				}
			}
			keep = append(keep, res)
		}
		u.ops = int64(len(u.latencies))
		u.wall = time.Since(t0).Seconds()
		r.sampleHeap(keep)
		return u, nil
	}

	if !r.traced {
		units, err := r.measure(3, func(int) (unitStats, error) { return plainUnit() })
		if err != nil {
			return nil, err
		}
		r.notef("litmus-suite: %d passes of %d cases, %d check latency samples", len(units), len(cl.cases), countLat(units))
		return endToEndValues(setups, units), nil
	}

	cl2 := &checkLayers{}
	cl2.canonAllocs = canonAllocs(cl.srcs)
	var plain, traced []unitStats
	_, err = r.measure(2, func(i int) (unitStats, error) {
		if i%2 == 0 {
			u, err := plainUnit()
			plain = append(plain, u)
			return u, err
		}
		u := tracedChecks(r, t, cl, cl2)
		traced = append(traced, u)
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	out := cl2.values(len(traced))
	overhead(plain, traced, out)
	return out, nil
}

// canonAllocs is the mean heap allocations per Canonicalize call over
// the programs, measured before any other goroutine runs.
func canonAllocs(srcs []string) float64 {
	progs := make([]*litmus.Program, 0, len(srcs))
	for _, s := range srcs {
		if p, err := litmus.Parse(s); err == nil {
			progs = append(progs, p)
		}
	}
	const reps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		for _, p := range progs {
			memmodel.Canonicalize(p)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps*max(len(progs), 1))
}

// checkLayers accumulates the checker layers over traced passes.
type checkLayers struct {
	mu                                         sync.Mutex
	parse, canon, static, enum, analyze, solve time.Duration
	theorem                                    time.Duration
	nParse, nCanon, nEnum, nSolve, nTheorem    int
	execs, transitions, skips, memoHits        int64
	decisions, propagations, conflicts, learnt int64
	canonAllocs                                float64
}

func (c *checkLayers) values(units int) map[string]float64 {
	u := float64(max(units, 1))
	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(max(n, 1)) }
	pruned := 0.0
	if c.skips+c.transitions > 0 {
		pruned = 100 * float64(c.skips) / float64(c.skips+c.transitions)
	}
	return map[string]float64{
		"litmus.parse_us":              us(c.parse, c.nParse),
		"memmodel.canon_us":            us(c.canon, c.nCanon),
		"memmodel.canon_allocs":        c.canonAllocs,
		"memmodel.static_us":           us(c.static, c.nEnum),
		"memmodel.enum_us":             us(c.enum-c.analyze, c.nEnum),
		"memmodel.executions":          float64(c.execs) / u,
		"memmodel.transitions":         float64(c.transitions) / u,
		"memmodel.pruned_pct":          pruned,
		"memmodel.analyze_us":          us(c.analyze, c.nEnum),
		"memmodel.analyze_ns_per_exec": float64(c.analyze.Nanoseconds()) / float64(max(c.execs, 1)),
		"solve.check_us":               us(c.solve, c.nSolve),
		"solve.decisions":              float64(c.decisions) / u,
		"solve.propagations":           float64(c.propagations) / u,
		"solve.conflicts":              float64(c.conflicts) / u,
		"solve.learned":                float64(c.learnt) / u,
		"sysmodel.theorem_us":          us(c.theorem, c.nTheorem),
		"sysmodel.memo_hits":           float64(c.memoHits) / u,
	}
}

// tracedChecks runs one pass with every check decomposed into its layer
// calls, cases spread over the run's workers.
func tracedChecks(r *run, t *tally, cl *checkList, acc *checkLayers) unitStats {
	t0 := time.Now()
	lat := make([][]float64, len(cl.cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an := memmodel.NewAnalyzer()
			for i := range next {
				lat[i] = tracedCase(r.rec, cl.cases[i], cl.srcs[i], cl.refs[i], an, acc, t)
			}
		}()
	}
	for i := range cl.cases {
		next <- i
	}
	close(next)
	wg.Wait()
	var u unitStats
	for _, l := range lat {
		u.latencies = append(u.latencies, l...)
	}
	u.ops = int64(len(u.latencies))
	u.wall = time.Since(t0).Seconds()
	return u
}

// tracedCase checks one program the way CheckProgramWith and
// ValidateTheoremWith do, one span per layer call: parse, canonicalize,
// then per model the static tables, enumeration with inline analysis
// and the solver, then the system-model search. It returns the latency
// of each check (model checks per backend, and the theorem), in ms.
func tracedCase(rec *recorder, tc litmus.Case, src string, ref *genCase, an *memmodel.Analyzer, acc *checkLayers, t *tally) []float64 {
	name := tc.Prog.Name
	root := rec.begin("check "+name, -1)
	defer rec.end(root)
	var p *litmus.Program
	var err error
	parse := rec.timed("litmus.parse", root, func() { p, err = litmus.Parse(src) })
	if err != nil {
		for range core.Models() {
			t.op(false, true, name+": "+err.Error())
		}
		return nil
	}
	canon := rec.timed("memmodel.canonicalize", root, func() { _, err = memmodel.Canonicalize(p) })
	t.op(err == nil, true, fmt.Sprintf("%s canonicalize: %v", name, err))

	var lat []float64
	var local checkLayers
	var rlxLegal bool
	var rlxSC map[string]bool
	for _, m := range core.Models() {
		pm := p.Under(m)
		mk := rec.begin("check."+m.String(), root)
		local.static += rec.timed("memmodel.static", mk, func() { an.Static(pm) })
		tel := telemetry.NewCheck(name, m.String())
		legal, sc := true, map[string]bool{}
		var analyze time.Duration
		local.enum += rec.timed("memmodel.enumerate", mk, func() {
			_, err = memmodel.Enumerate(pm, memmodel.EnumOptions{
				Quantum: true, Sequential: true, Telemetry: tel,
				Visit: func(ex *memmodel.Execution) error {
					a0 := time.Now()
					if an.Analyze(ex).Illegal(m) {
						legal = false
					}
					analyze += time.Since(a0)
					sc[ex.ResultKey()] = true
					return nil
				},
			})
		})
		lat = append(lat, rec.end(mk).Seconds()*1e3)
		local.analyze += analyze
		rec2 := tel.Record()
		local.execs += rec2.Executions
		local.transitions += rec2.Transitions
		local.skips += rec2.SleepSkips
		v := &memmodel.Verdict{Legal: legal, SCResults: sc}
		t.op(err == nil && verdictOK(v, tc, ref, m), true, fmt.Sprintf("%s %s (traced enumerate): %v", name, m, err))
		if m == core.DRFrlx {
			rlxLegal, rlxSC = legal, sc
		}

		stel := telemetry.NewCheck(name, m.String())
		var sv *memmodel.Verdict
		d := rec.timed("solve.check", root, func() {
			sv, err = solve.Check(p, m, memmodel.CheckOptions{Telemetry: stel})
		})
		local.solve += d
		lat = append(lat, d.Seconds()*1e3)
		srec := stel.Record()
		local.decisions += srec.SolveDecisions
		local.propagations += srec.SolvePropagations
		local.conflicts += srec.SolveConflicts
		local.learnt += srec.SolveLearned
		t.op(err == nil && verdictOK(sv, tc, ref, m), false, fmt.Sprintf("%s %s (traced solve): %v", name, m, err))
	}

	sysTel := telemetry.NewCheck(name, "system")
	var sys map[string]bool
	d := rec.timed("sysmodel.system_results", root, func() {
		sys, err = memmodel.SystemResultsWith(p.Under(core.DRFrlx), 0, sysTel)
	})
	lat = append(lat, d.Seconds()*1e3)
	subset := err == nil
	for k := range sys {
		subset = subset && rlxSC[k]
	}
	t.op(err == nil && (!rlxLegal || subset), true, fmt.Sprintf("%s theorem 3.1 (traced): %v", name, err))

	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.parse += parse
	acc.canon += canon
	acc.static += local.static
	acc.enum += local.enum
	acc.analyze += local.analyze
	acc.solve += local.solve
	acc.theorem += d
	acc.nParse++
	acc.nCanon++
	acc.nEnum += len(core.Models())
	acc.nSolve += len(core.Models())
	acc.nTheorem++
	acc.execs += local.execs
	acc.transitions += local.transitions
	acc.skips += local.skips
	acc.memoHits += sysTel.Record().MemoHits
	acc.decisions += local.decisions
	acc.propagations += local.propagations
	acc.conflicts += local.conflicts
	acc.learnt += local.learnt
	return lat
}
