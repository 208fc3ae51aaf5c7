package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"rats/internal/core"
	"rats/internal/energy"
	"rats/internal/harness"
	"rats/internal/litmus"
	"rats/internal/obs"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
	"rats/internal/stats"
	"rats/internal/trace"
	"rats/internal/workloads"
)

// Pinned digests of the paper-scale output: the whole rendered text, the
// Figure 1 bars, and the Stats of every Figure 3/4 run. The simulator is
// deterministic, so any change here is a model change, not a speedup.
const (
	pinnedRender = "63f55a6752338324"
	pinnedFig1   = "f20e92ab82dfb1da"
	pinnedStats  = "4333583d4d5e044e"
)

// figurePart is one of the sweeps of a full regeneration; the seed
// permutes their order, which changes no output.
type figurePart int

const (
	partFig1 figurePart = iota
	partFig3
	partFig4
)

// statsDigest hashes every run's counters in workload/config order.
func statsDigest(res ...harness.Results) string {
	var parts []string
	for _, r := range res {
		for wl, byCfg := range r {
			for cfg, rr := range byCfg {
				if rr == nil {
					continue
				}
				parts = append(parts, wl+"/"+cfg+"\n"+rr.Stats.String())
			}
		}
	}
	sort.Strings(parts)
	return digest(parts...)
}

// staticTables renders Table 1 to 4, which need no simulation.
func staticTables() string {
	var b strings.Builder
	b.WriteString("Table 1: GPU relaxed atomic use cases\n")
	for _, tc := range litmus.Suite() {
		if tc.UseCase != "" {
			fmt.Fprintf(&b, "  %-28s %s\n", tc.UseCase, tc.App)
		}
	}
	b.WriteString(harness.Table2())
	b.WriteString(harness.Table3())
	b.WriteString(harness.Table4())
	return b.String()
}

// regenerate renders everything `ratsfigures -scale paper` does except
// the checker-backed Figure 2, through the harness entry points, running
// the three sweeps in the given order. Progress records each Figure 3/4
// run's start and end.
func regenerate(order []int, prog *obs.Progress) (text string, fig1 []harness.Figure1Row, fig3, fig4 *harness.Figure, errs []error) {
	const scale = workloads.Paper
	opts := &harness.RunOptions{Progress: prog}
	for _, p := range order {
		var err error
		switch figurePart(p) {
		case partFig1:
			fig1, err = harness.Figure1(scale)
		case partFig3:
			fig3, err = harness.Figure3With(scale, opts)
		case partFig4:
			fig4, err = harness.Figure4With(scale, opts)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	text = staticTables() + harness.RenderFigure1(fig1) + fig3.Render() + fig4.Render() +
		harness.Summarize(fig3, fig4).Render()
	return text, fig1, fig3, fig4, errs
}

// sweepIdle is the worker time a sweep left unused: workers x wall
// minus the runs' busy time, from the Progress start/end records.
func sweepIdle(rep obs.Report, workers int, wall float64) float64 {
	busy := 0.0
	for _, rs := range rep.Runs {
		busy += rs.ElapsedMs / 1e3
	}
	return float64(workers)*wall - busy
}

func runFigures(r *run, t *tally) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(r.seed))
	// Set-up: the test-scale Figure 3 sweep as a warm-up (heap growth,
	// page faults, code paths), five times.
	setups, err := timeIt(5, func(int) error {
		_, err := harness.Figure3(workloads.Test)
		return err
	})
	if err != nil {
		return nil, err
	}

	var idle []float64
	plainUnit := func() (unitStats, error) {
		prog := obs.NewProgress()
		t0 := time.Now()
		text, fig1, fig3, fig4, errs := regenerate(rng.Perm(3), prog)
		wall := time.Since(t0).Seconds()
		u := unitStats{wall: wall}
		rep := prog.Snapshot()
		for _, rs := range rep.Runs {
			u.latencies = append(u.latencies, rs.ElapsedMs)
			t.op(rs.State == obs.RunDone, true, "figures run "+rs.Workload+"/"+rs.Config+": "+rs.Err)
		}
		u.ops = int64(len(rep.Runs))
		// Each Figure 1 bar is two simulations: SC and relaxed atomics.
		for _, app := range workloads.Figure1Apps() {
			ok := len(fig1) > 0
			t.op(ok, true, "figure 1 SC run "+app.Name)
			t.op(ok, true, "figure 1 relaxed run "+app.Name)
		}
		u.ops += int64(2 * len(fig1))
		for _, e := range errs {
			r.notef("sweep error: %v", e)
		}
		t.op(digest(harness.RenderFigure1(fig1)) == pinnedFig1, true, "figure 1 digest "+digest(harness.RenderFigure1(fig1)))
		t.op(statsDigest(fig3.Results, fig4.Results) == pinnedStats, true, "stats digest "+statsDigest(fig3.Results, fig4.Results))
		t.op(digest(text) == pinnedRender, true, "render digest "+digest(text))
		idle = append(idle, sweepIdle(rep, r.workers, wall))
		r.sampleHeap(text, fig1, fig3, fig4)
		return u, nil
	}

	if !r.traced {
		units, err := r.measure(1, func(int) (unitStats, error) { return plainUnit() })
		if err != nil {
			return nil, err
		}
		out := endToEndValues(setups, units)
		r.notef("figures-paper: %d regenerations, %d sim-run latency samples", len(units), countLat(units))
		return out, nil
	}

	// Traced: alternate a plain regeneration with one that drives every
	// (workload, config) pair itself, timing each layer.
	ls := &simLayers{}
	var plain, traced []unitStats
	_, err = r.measure(2, func(i int) (unitStats, error) {
		if i%2 == 0 {
			u, err := plainUnit()
			plain = append(plain, u)
			return u, err
		}
		u, err := tracedFigures(r, t, rng, ls)
		traced = append(traced, u)
		return u, err
	})
	if err != nil {
		return nil, err
	}
	out := ls.values(len(traced))
	out["harness.worker_idle_s"] = median(idle)
	overhead(plain, traced, out)
	return out, nil
}

func countLat(us []unitStats) int {
	n := 0
	for _, u := range us {
		n += len(u.latencies)
	}
	return n
}

// simPair is one simulation of a traced regeneration.
type simPair struct {
	fig   figurePart
	entry workloads.Entry
	cfg   string
	model core.Model // Figure 1 only: the discrete GPU's model
}

func figurePairs() []simPair {
	var out []simPair
	for _, e := range workloads.Figure1Apps() {
		out = append(out, simPair{fig: partFig1, entry: e, model: core.DRF0}, simPair{fig: partFig1, entry: e, model: core.DRFrlx})
	}
	for _, set := range []struct {
		fig     figurePart
		entries []workloads.Entry
	}{{partFig3, workloads.Micro()}, {partFig4, workloads.Benchmarks()}} {
		for _, e := range set.entries {
			for _, c := range harness.ConfigOrder {
				out = append(out, simPair{fig: set.fig, entry: e, cfg: c})
			}
		}
	}
	return out
}

// simLayers accumulates the simulator layers over traced regenerations.
type simLayers struct {
	mu                    sync.Mutex
	build, load, run, rep time.Duration
	traceOps              int64
	st                    stats.Stats
}

func (s *simLayers) values(units int) map[string]float64 {
	u := float64(max(units, 1))
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	return map[string]float64{
		"workloads.build_s":     s.build.Seconds() / u,
		"workloads.trace_ops":   float64(s.traceOps) / u,
		"system.load_s":         s.load.Seconds() / u,
		"system.run_s":          s.run.Seconds() / u,
		"system.run_ns_per_op":  float64(s.run.Nanoseconds()) / float64(max(s.st.CoreOps, 1)),
		"system.sim_mips":       float64(s.st.CoreOps) / s.run.Seconds() / 1e6,
		"system.cycles":         float64(s.st.Cycles) / u,
		"system.core_ops":       float64(s.st.CoreOps) / u,
		"cu.warp_issue_stalls":  float64(s.st.WarpIssueStalls) / u,
		"memsys.l1_accesses":    float64(s.st.L1Accesses) / u,
		"memsys.l1_hit_ratio":   ratio(s.st.L1Hits, s.st.L1Accesses),
		"memsys.l2_accesses":    float64(s.st.L2Accesses) / u,
		"memsys.l2_hit_ratio":   ratio(s.st.L2Hits, s.st.L2Accesses),
		"memsys.mshr_coalesced": float64(s.st.MSHRCoalesced) / u,
		"memsys.sb_full_stalls": float64(s.st.StoreBufferFullStalls) / u,
		"memsys.dram_accesses":  float64(s.st.DRAMAccesses) / u,
		"noc.messages":          float64(s.st.NoCMessages) / u,
		"noc.flit_hops":         float64(s.st.NoCFlitHops) / u,
		"energy.report_s":       s.rep.Seconds() / u,
	}
}

// tracedFigures runs every pair of a regeneration through ConfigFor,
// Entry.Build, system.New, Load and Run on the run's workers, in a
// seeded order, and checks the pinned digests on what it simulated.
func tracedFigures(r *run, t *tally, rng *rand.Rand, ls *simLayers) (unitStats, error) {
	pairs := figurePairs()
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	rec := r.rec
	results := make([]*system.Result, len(pairs))
	lat := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	t0 := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], lat[i], errs[i] = tracedPair(rec, pairs[i], ls)
			}
		}()
	}
	for i := range pairs {
		next <- i
	}
	close(next)
	wg.Wait()

	fig1 := map[string][2]int64{}
	res := harness.Results{}
	for i, p := range pairs {
		t.op(errs[i] == nil, true, fmt.Sprintf("traced run %s/%s: %v", p.entry.Name, p.cfg, errs[i]))
		if errs[i] != nil {
			continue
		}
		if p.fig == partFig1 {
			c := fig1[p.entry.Name]
			c[map[core.Model]int{core.DRF0: 0, core.DRFrlx: 1}[p.model]] = results[i].Stats.Cycles
			fig1[p.entry.Name] = c
			continue
		}
		if res[p.entry.Name] == nil {
			res[p.entry.Name] = map[string]*system.Result{}
		}
		res[p.entry.Name][p.cfg] = results[i]
	}
	root := rec.begin("energy.report", -1)
	var rows []harness.Figure1Row
	for _, app := range workloads.Figure1Apps() {
		c := fig1[app.Name]
		rows = append(rows, harness.Figure1Row{App: app.Name, Speedup: float64(c[0]) / float64(c[1])})
	}
	report := harness.RenderFigure1(rows)
	tables := staticTables()
	ls.mu.Lock()
	ls.rep += rec.end(root)
	ls.mu.Unlock()
	t.op(digest(report) == pinnedFig1 && tables != "", true, "traced figure 1 digest "+digest(report))
	t.op(statsDigest(res) == pinnedStats, true, "traced stats digest "+statsDigest(res))
	return unitStats{wall: time.Since(t0).Seconds(), ops: int64(len(pairs)), latencies: lat}, nil
}

// tracedPair simulates one pair with a span around each layer call and
// returns its result, its host time in ms and its error. The energy
// breakdown is recomputed from the Stats and must equal Run's.
func tracedPair(rec *recorder, p simPair, ls *simLayers) (*system.Result, float64, error) {
	root := rec.begin("sim "+p.entry.Name+"/"+p.cfg, -1)
	var cfg memsys.Config
	var err error
	if p.fig == partFig1 {
		cfg = memsys.Discrete(p.model)
	} else if cfg, err = harness.ConfigFor(p.cfg); err != nil {
		return nil, rec.end(root).Seconds() * 1e3, err
	}
	var tr *trace.Trace
	build := rec.timed("workloads.build", root, func() { tr = p.entry.Build(workloads.Paper) })
	var ops int64
	for _, w := range tr.Warps {
		ops += int64(len(w.Ops))
	}
	var sys *system.System
	load := rec.timed("system.load", root, func() {
		sys = system.New(cfg)
		err = sys.Load(tr)
	})
	var res *system.Result
	var run, rep time.Duration
	if err == nil {
		run = rec.timed("system.run", root, func() { res, err = sys.Run() })
	}
	if err == nil {
		var en energy.Breakdown
		rep = rec.timed("energy.compute", root, func() { en = energy.Compute(&res.Stats, energy.DefaultModel()) })
		if en != res.Energy {
			err = fmt.Errorf("energy breakdown differs from the run's")
		}
	}
	ms := rec.end(root).Seconds() * 1e3
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.build += build
	ls.load += load
	ls.run += run
	ls.rep += rep
	ls.traceOps += ops
	if res != nil {
		ls.st.Add(&res.Stats)
	}
	return res, ms, err
}
