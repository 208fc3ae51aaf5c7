// Package harness runs the paper's experiments end to end: it sweeps
// workloads across the six configurations (GD0, GD1, GDR, DD0, DD1, DDR),
// regenerates every figure and table of the evaluation, and computes the
// summary statistics Section 6 quotes.
package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rats/internal/core"
	"rats/internal/energy"
	"rats/internal/fault"
	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
	"rats/internal/probe"
	"rats/internal/report"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
	"rats/internal/trace"
	"rats/internal/workloads"
)

// ConfigOrder lists the six configurations in the paper's order.
var ConfigOrder = []string{"GD0", "GD1", "GDR", "DD0", "DD1", "DDR"}

// EnergyComponents lists the paper's energy breakdown components.
var EnergyComponents = []string{"GPU core+", "Scratch", "L1", "L2", "NoC"}

// ConfigFor returns the simulator configuration for a name like "GD0" or
// "DDR".
func ConfigFor(name string) (memsys.Config, error) {
	if len(name) != 3 {
		return memsys.Config{}, fmt.Errorf("harness: bad config name %q", name)
	}
	var proto memsys.Protocol
	switch name[0] {
	case 'G':
		proto = memsys.ProtoGPU
	case 'D':
		proto = memsys.ProtoDeNovo
	default:
		return memsys.Config{}, fmt.Errorf("harness: bad protocol in %q", name)
	}
	var model core.Model
	switch name[1:] {
	case "D0":
		model = core.DRF0
	case "D1":
		model = core.DRF1
	case "DR":
		model = core.DRFrlx
	default:
		return memsys.Config{}, fmt.Errorf("harness: bad model in %q", name)
	}
	return memsys.Default(proto, model), nil
}

// Results maps workload name -> config name -> simulation result.
type Results map[string]map[string]*system.Result

// RunOptions controls the resilience and fault-injection behaviour of a
// sweep. The zero value reproduces the plain sweep: no timeouts, no
// journal, no injected faults, default watchdog.
type RunOptions struct {
	// Timeout, when positive, bounds each run's wall-clock time; an
	// expired run aborts with a diagnostic error instead of hanging the
	// sweep.
	Timeout time.Duration
	// Journal, when non-nil, records each completed run and lets an
	// interrupted sweep resume: already-journaled (workload, config) pairs
	// are restored instead of re-simulated.
	Journal *Journal
	// Faults and FaultSeed configure deterministic fault injection for
	// every run in the sweep.
	Faults    *fault.Spec
	FaultSeed int64
	// WatchdogWindow overrides the per-run liveness watchdog: positive
	// replaces the default no-progress window, negative disables the
	// watchdog, zero keeps the configuration default.
	WatchdogWindow int64
	// Progress, when non-nil, receives per-run lifecycle updates
	// (running/done/failed/restored) for the live /progress endpoint.
	Progress *obs.Progress
	// Checks, when non-nil, registers one telemetry check per semantics
	// check a litmus sweep (LitmusSweep) runs, feeding the obs server's
	// /checks endpoint and rats_check_* metrics. Simulation sweeps ignore
	// it.
	Checks *telemetry.Registry
	// TelemetryOut, when non-nil, receives the deterministic per-check
	// JSONL records when a litmus sweep completes — one JSON object per
	// check, in suite order, byte-identical across runs and worker counts.
	TelemetryOut io.Writer
}

// apply folds the options into a run configuration.
func (o *RunOptions) apply(cfg *memsys.Config) {
	if o == nil {
		return
	}
	cfg.Faults = o.Faults
	cfg.FaultSeed = o.FaultSeed
	switch {
	case o.WatchdogWindow > 0:
		cfg.WatchdogWindow = o.WatchdogWindow
	case o.WatchdogWindow < 0:
		cfg.WatchdogWindow = 0
	}
}

// run is one simulation of a sweep: a workload under a configuration,
// with an optional probe sink attached for the run's duration. cfgName
// keys the run in errors, the journal and Progress.
type run struct {
	entry   workloads.Entry
	cfgName string
	cfg     memsys.Config
	sink    probe.Sink
}

// grid lists every (entry, config) run in workload-major order, each
// with its own sink from newSink (nil means none). A bad config name is
// reported in the returned error and its runs are left out.
func grid(entries []workloads.Entry, cfgNames []string, newSink func() probe.Sink) ([]run, error) {
	var errs []error
	cfgs := make([]*memsys.Config, len(cfgNames))
	for i, name := range cfgNames {
		cfg, err := ConfigFor(name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		cfgs[i] = &cfg
	}
	var runs []run
	for _, e := range entries {
		for i, name := range cfgNames {
			if cfgs[i] == nil {
				continue
			}
			r := run{entry: e, cfgName: name, cfg: *cfgs[i]}
			if newSink != nil {
				r.sink = newSink()
			}
			runs = append(runs, r)
		}
	}
	return runs, errors.Join(errs...)
}

// parallel calls f(i, w) for every i in [0, n) on at most workers
// goroutines (<= 0 means GOMAXPROCS), starting calls in index order;
// w in [0, min(workers, n)) names the goroutine making the call. It
// returns once every call has.
func parallel(n, workers int, f func(i, w int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i, w)
			}
		}(w)
	}
	wg.Wait()
}

// traceSet builds each workload's trace once per sweep and shares it,
// read only, across that workload's runs: the simulator never writes a
// trace (TestRunLeavesTraceUntouched pins this). A trace is dropped from
// the set once its last run has taken it, so a sweep holds only the
// traces of workloads still in progress.
type traceSet struct {
	scale  workloads.Scale
	mu     sync.Mutex
	byName map[string]*sharedTrace
}

// sharedTrace is one workload's trace, built by the first run to need
// it; users counts the runs that have yet to take it.
type sharedTrace struct {
	once  sync.Once
	tr    *trace.Trace
	err   error
	users int
}

// add counts one more run of the workload.
func (ts *traceSet) add(e workloads.Entry) {
	st := ts.byName[e.Name]
	if st == nil {
		st = &sharedTrace{}
		ts.byName[e.Name] = st
	}
	st.users++
}

// take returns the run's trace, building it on first use. A panic in
// the builder becomes every such run's error, stack included.
func (ts *traceSet) take(e workloads.Entry) (*trace.Trace, error) {
	ts.mu.Lock()
	st := ts.byName[e.Name]
	if st.users--; st.users == 0 {
		delete(ts.byName, e.Name)
	}
	ts.mu.Unlock()
	st.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				st.err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			}
		}()
		if st.tr = e.Build(ts.scale); st.tr == nil {
			st.err = fmt.Errorf("workload %s built a nil trace", e.Name)
		}
	})
	return st.tr, st.err
}

// runOne executes one run with panic recovery and the options' optional
// wall-clock timeout, faults and watchdog window. A panic anywhere in
// trace building or simulation is converted into an error carrying the
// stack, so one broken run cannot take down the rest of a sweep.
func runOne(r run, traces *traceSet, opts *RunOptions) (res *system.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	cfg := r.cfg
	opts.apply(&cfg)
	tr, err := traces.take(r.entry)
	if err != nil {
		return nil, err
	}
	sys := system.New(cfg)
	if r.sink != nil {
		hub := probe.NewHub()
		hub.Attach(r.sink)
		sys.AttachProbe(hub)
	}
	if err := sys.Load(tr); err != nil {
		return nil, err
	}
	if opts != nil && opts.Timeout > 0 {
		d := opts.Timeout
		t := time.AfterFunc(d, func() { sys.Abort(fmt.Sprintf("wall-clock timeout %s exceeded", d)) })
		defer t.Stop()
	}
	if res, err = sys.Run(); err != nil {
		return nil, err
	}
	if r.sink != nil {
		if err := r.sink.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sweep executes the runs on the pool and returns their results in run
// order; runs of one workload share its trace. With a journal, already-recorded pairs are restored instead of
// re-simulated and every completed run is recorded; only completed runs
// are, so a rerun re-simulates every pair that failed. Progress, when
// set, follows each run's lifecycle. Failures do not stop the sweep: a
// failed run leaves a nil result and all errors are joined.
func sweep(runs []run, scale workloads.Scale, opts *RunOptions) ([]*system.Result, error) {
	var jnl *Journal
	var prog *obs.Progress
	if opts != nil {
		jnl, prog = opts.Journal, opts.Progress
	}
	out := make([]*system.Result, len(runs))
	errs := make([]error, len(runs))
	traces := &traceSet{scale: scale, byName: map[string]*sharedTrace{}}
	var todo []int
	for i, r := range runs {
		if jnl != nil {
			if res, ok := jnl.Lookup(r.entry.Name, r.cfgName); ok {
				out[i] = res
				if prog != nil {
					prog.Restored(r.entry.Name, r.cfgName, res.Stats.Cycles)
				}
				continue
			}
		}
		todo = append(todo, i)
		traces.add(r.entry)
	}
	parallel(len(todo), 0, func(k, _ int) {
		i := todo[k]
		name, cfg := runs[i].entry.Name, runs[i].cfgName
		if prog != nil {
			prog.Start(name, cfg)
		}
		res, err := runOne(runs[i], traces, opts)
		if err != nil {
			errs[i] = fmt.Errorf("%s/%s: %w", name, cfg, err)
			if prog != nil {
				prog.Fail(name, cfg, err)
			}
			return
		}
		out[i] = res
		if prog != nil {
			prog.Done(name, cfg, res.Stats.Cycles)
		}
		if jnl != nil {
			if err := jnl.Record(name, cfg, res); err != nil {
				errs[i] = fmt.Errorf("%s/%s: journal: %w", name, cfg, err)
			}
		}
	})
	return out, errors.Join(errs...)
}

// RunAllWith simulates every entry under every named configuration, in
// parallel across runs (each simulation is single-threaded and
// independent), with the given resilience options (nil for none).
// Failures do not stop the sweep: every run is attempted (or restored
// from the journal), all errors are joined into the returned error, and
// the Results hold every run that did succeed — callers get partial
// figures plus a full account of what failed.
func RunAllWith(entries []workloads.Entry, scale workloads.Scale, cfgNames []string, opts *RunOptions) (Results, error) {
	runs, cfgErr := grid(entries, cfgNames, nil)
	res, err := sweep(runs, scale, opts)
	out := Results{}
	for i, r := range runs {
		if res[i] == nil {
			continue
		}
		if out[r.entry.Name] == nil {
			out[r.entry.Name] = map[string]*system.Result{}
		}
		out[r.entry.Name][r.cfgName] = res[i]
	}
	return out, errors.Join(cfgErr, err)
}

// Figure holds one reproduced figure: execution time and energy, plus the
// raw results.
type Figure struct {
	Title   string
	Order   []string // workload row order
	Time    *report.Table
	Energy  *report.StackedTable
	Results Results
}

// buildFigure assembles time/energy tables from results.
func buildFigure(title string, entries []workloads.Entry, res Results) *Figure {
	f := &Figure{Title: title, Results: res}
	f.Time = report.NewTable(title+" — execution time", "workload", ConfigOrder)
	f.Energy = report.NewStackedTable(title+" — energy", EnergyComponents, ConfigOrder)
	for _, e := range entries {
		f.Order = append(f.Order, e.Name)
		for _, c := range ConfigOrder {
			r := res[e.Name][c]
			if r == nil {
				continue
			}
			f.Time.Set(e.Name, c, float64(r.Stats.Cycles))
			br := r.Energy
			f.Energy.Set(e.Name, c, "GPU core+", br.Core)
			f.Energy.Set(e.Name, c, "Scratch", br.Scratch)
			f.Energy.Set(e.Name, c, "L1", br.L1)
			f.Energy.Set(e.Name, c, "L2", br.L2)
			f.Energy.Set(e.Name, c, "NoC", br.NoC)
		}
	}
	return f
}

// Render prints the figure in the paper's normalized form.
func (f *Figure) Render() string {
	var b strings.Builder
	b.WriteString(f.Time.Normalize("GD0").Render("%10.3f", true))
	b.WriteString("\n")
	b.WriteString(f.Energy.Render("GD0"))
	return b.String()
}

// Figure3 reproduces Figure 3: the seven microbenchmarks under all six
// configurations.
func Figure3(scale workloads.Scale) (*Figure, error) {
	fig, err := Figure3With(scale, nil)
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Figure3With is Figure3 with resilience options. Unlike Figure3, a
// non-nil error still comes with the figure built from whatever runs
// succeeded.
func Figure3With(scale workloads.Scale, opts *RunOptions) (*Figure, error) {
	entries := workloads.Micro()
	res, err := RunAllWith(entries, scale, ConfigOrder, opts)
	return buildFigure("Figure 3: microbenchmarks", entries, res), err
}

// Figure4With reproduces Figure 4: UTS, BC 1-4, PR 1-4 under all six
// configurations. Like Figure3With it returns the partial figure
// alongside any joined error.
func Figure4With(scale workloads.Scale, opts *RunOptions) (*Figure, error) {
	entries := workloads.Benchmarks()
	res, err := RunAllWith(entries, scale, ConfigOrder, opts)
	return buildFigure("Figure 4: benchmarks", entries, res), err
}

// Figure1Row is one bar of Figure 1.
type Figure1Row struct {
	App     string
	Speedup float64 // relaxed-atomic time over SC-atomic time on the discrete GPU
}

// Figure1 reproduces Figure 1: relaxed vs. SC atomics on a discrete GPU.
// Each application runs twice on the discrete configuration — once with
// every atomic strengthened to SC (DRF0) and once with its relaxed
// annotations honoured (DRFrlx) — and the speedup is reported.
func Figure1(scale workloads.Scale) ([]Figure1Row, error) {
	apps := workloads.Figure1Apps()
	res, err := sweep(figure1Runs(apps), scale, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure1Row, len(apps))
	for i, app := range apps {
		rows[i] = Figure1Row{App: app.Name, Speedup: float64(res[2*i].Stats.Cycles) / float64(res[2*i+1].Stats.Cycles)}
	}
	return rows, nil
}

// figure1Runs lists Figure 1's simulations: each app under SC (DRF0)
// and then relaxed (DRFrlx) atomics on the discrete GPU.
func figure1Runs(apps []workloads.Entry) []run {
	var runs []run
	for _, app := range apps {
		runs = append(runs,
			run{entry: app, cfgName: "SC", cfg: memsys.Discrete(core.DRF0)},
			run{entry: app, cfgName: "relaxed", cfg: memsys.Discrete(core.DRFrlx)})
	}
	return runs
}

// RenderFigure1 draws the Figure 1 bars.
func RenderFigure1(rows []Figure1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1: relaxed-atomics speedup on a discrete GPU (SC time / relaxed time)\n")
	max := 0.0
	for _, r := range rows {
		if r.Speedup > max {
			max = r.Speedup
		}
	}
	for _, r := range rows {
		n := int(r.Speedup / max * 50)
		fmt.Fprintf(&b, "%-14s %s %.2fx\n", r.App, strings.Repeat("#", n), r.Speedup)
	}
	return b.String()
}

// Summary holds the Section 6 headline aggregates.
type Summary struct {
	// Reduction[weaker][stronger] style entries, as fractions (0.12 =
	// 12% execution-time reduction).
	MicroDRFrlxVsDRF0GPU    float64
	MicroDRFrlxVsDRF0DeNovo float64
	DeNovoTimeReduction     [3]float64 // vs GPU, per model DRF0/DRF1/DRFrlx
	DeNovoEnergyReduction   [3]float64
	DRF1TimeReduction       [2]float64 // vs DRF0: [GPU, DeNovo], all workloads
	DRFrlxTimeReduction     [2]float64 // vs DRF1: [GPU, DeNovo], all workloads
	MaxDRF1ReductionBCPR    [2]float64 // best-case DRF1 vs DRF0 on BC/PR
	MaxDRFrlxReductionBCPR  [2]float64 // best-case DRFrlx vs DRF1 on BC/PR
}

func reduction(times Results, rows []string, weakCfg, strongCfg string) float64 {
	var ratios []float64
	for _, r := range rows {
		a, b := times[r][weakCfg], times[r][strongCfg]
		if a != nil && b != nil && b.Stats.Cycles > 0 {
			ratios = append(ratios, float64(a.Stats.Cycles)/float64(b.Stats.Cycles))
		}
	}
	return 1 - report.Geomean(ratios)
}

func energyReduction(times Results, rows []string, weakCfg, strongCfg string) float64 {
	var ratios []float64
	for _, r := range rows {
		a, b := times[r][weakCfg], times[r][strongCfg]
		if a != nil && b != nil && b.Energy.Total() > 0 {
			ratios = append(ratios, a.Energy.Total()/b.Energy.Total())
		}
	}
	return 1 - report.Geomean(ratios)
}

func maxReduction(times Results, rows []string, weakCfg, strongCfg string) float64 {
	best := 0.0
	for _, r := range rows {
		a, b := times[r][weakCfg], times[r][strongCfg]
		if a == nil || b == nil || b.Stats.Cycles == 0 {
			continue
		}
		red := 1 - float64(a.Stats.Cycles)/float64(b.Stats.Cycles)
		if red > best {
			best = red
		}
	}
	return best
}

// Summarize computes the Section 6 aggregates from the two figures.
func Summarize(fig3, fig4 *Figure) *Summary {
	all := Results{}
	for k, v := range fig3.Results {
		all[k] = v
	}
	for k, v := range fig4.Results {
		all[k] = v
	}
	allRows := append(append([]string{}, fig3.Order...), fig4.Order...)
	var bcpr []string
	for _, r := range fig4.Order {
		if strings.HasPrefix(r, "BC") || strings.HasPrefix(r, "PR") {
			bcpr = append(bcpr, r)
		}
	}
	s := &Summary{
		MicroDRFrlxVsDRF0GPU:    reduction(fig3.Results, fig3.Order, "GDR", "GD0"),
		MicroDRFrlxVsDRF0DeNovo: reduction(fig3.Results, fig3.Order, "DDR", "DD0"),
	}
	for i, m := range []string{"D0", "D1", "DR"} {
		s.DeNovoTimeReduction[i] = reduction(all, allRows, "D"+m, "G"+m)
		s.DeNovoEnergyReduction[i] = energyReduction(all, allRows, "D"+m, "G"+m)
	}
	s.DRF1TimeReduction = [2]float64{
		reduction(all, allRows, "GD1", "GD0"),
		reduction(all, allRows, "DD1", "DD0"),
	}
	s.DRFrlxTimeReduction = [2]float64{
		reduction(all, allRows, "GDR", "GD1"),
		reduction(all, allRows, "DDR", "DD1"),
	}
	s.MaxDRF1ReductionBCPR = [2]float64{
		maxReduction(all, bcpr, "GD1", "GD0"),
		maxReduction(all, bcpr, "DD1", "DD0"),
	}
	s.MaxDRFrlxReductionBCPR = [2]float64{
		maxReduction(all, bcpr, "GDR", "GD1"),
		maxReduction(all, bcpr, "DDR", "DD1"),
	}
	return s
}

// Render prints the summary next to the paper's quoted numbers.
func (s *Summary) Render() string {
	var b strings.Builder
	b.WriteString("Section 6 headline aggregates (measured vs. paper)\n")
	f := func(name string, got float64, paper string) {
		fmt.Fprintf(&b, "  %-58s %6.1f%%   (paper: %s)\n", name, got*100, paper)
	}
	f("micro: DRFrlx vs DRF0 exec-time reduction, GPU", s.MicroDRFrlxVsDRF0GPU, "6%")
	f("micro: DRFrlx vs DRF0 exec-time reduction, DeNovo", s.MicroDRFrlxVsDRF0DeNovo, "10%")
	f("all: DRF1 vs DRF0 exec-time reduction, GPU", s.DRF1TimeReduction[0], "11%")
	f("all: DRF1 vs DRF0 exec-time reduction, DeNovo", s.DRF1TimeReduction[1], "11%")
	f("all: DRFrlx vs DRF1 exec-time reduction, GPU", s.DRFrlxTimeReduction[0], "9%")
	f("all: DRFrlx vs DRF1 exec-time reduction, DeNovo", s.DRFrlxTimeReduction[1], "7%")
	f("BC/PR: max DRF1 vs DRF0 reduction, GPU", s.MaxDRF1ReductionBCPR[0], "up to 49%")
	f("BC/PR: max DRF1 vs DRF0 reduction, DeNovo", s.MaxDRF1ReductionBCPR[1], "up to 53%")
	f("BC/PR: max DRFrlx vs DRF1 reduction, GPU", s.MaxDRFrlxReductionBCPR[0], "up to 37%")
	f("BC/PR: max DRFrlx vs DRF1 reduction, DeNovo", s.MaxDRFrlxReductionBCPR[1], "up to 29%")
	for i, m := range []string{"DRF0", "DRF1", "DRFrlx"} {
		f(fmt.Sprintf("DeNovo vs GPU exec-time reduction, %s", m), s.DeNovoTimeReduction[i], []string{"14%", "14%", "12%"}[i])
		f(fmt.Sprintf("DeNovo vs GPU energy reduction, %s", m), s.DeNovoEnergyReduction[i], []string{"16%", "18%", "18%"}[i])
	}
	return b.String()
}

// Table2 renders the simulated system parameters.
func Table2() string {
	cfg := memsys.Default(memsys.ProtoGPU, core.DRF0)
	var b strings.Builder
	b.WriteString("Table 2: simulated heterogeneous system parameters\n")
	rows := [][2]string{
		{"CPU cores", "1"},
		{"GPU CUs", fmt.Sprint(cfg.NumCUs)},
		{"Mesh", fmt.Sprintf("%dx%d", cfg.MeshWidth, cfg.MeshHeight)},
		{"L1 size", fmt.Sprintf("%d KB (%d sets, %d-way)", int64(cfg.L1Sets*cfg.L1Ways)*int64(cfg.LineSize)/1024, cfg.L1Sets, cfg.L1Ways)},
		{"L2 size", fmt.Sprintf("%d MB (%d banks, NUCA)", int64(cfg.L2SetsPerBank*cfg.L2Ways)*int64(cfg.LineSize)*int64(cfg.Nodes())/(1024*1024), cfg.Nodes())},
		{"Store buffer size", fmt.Sprintf("%d entries", cfg.StoreBuffer)},
		{"L1 MSHRs", fmt.Sprintf("%d entries", cfg.L1MSHRs)},
		{"L1 hit latency", fmt.Sprintf("%d cycle", cfg.L1HitLat)},
		{"Remote L1 hit latency", remoteL1Range(cfg)},
		{"L2 hit latency", l2Range(cfg)},
		{"Memory latency", memRange(cfg)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %s\n", r[0], r[1])
	}
	return b.String()
}

func l2Range(cfg memsys.Config) string {
	// Round trip: request hop(s) + bank latency + response hops.
	minLat := cfg.L2Lat + 2*cfg.HopLat
	maxLat := cfg.L2Lat + 2*int64(cfg.MeshWidth+cfg.MeshHeight-2)*cfg.HopLat + int64(cfg.DataFlits)
	return fmt.Sprintf("%d-%d cycles", minLat, maxLat)
}

func remoteL1Range(cfg memsys.Config) string {
	minLat := cfg.L2Lat + 4*cfg.HopLat + cfg.L1HitLat
	maxLat := cfg.L2Lat + 3*int64(cfg.MeshWidth+cfg.MeshHeight-2)*cfg.HopLat + cfg.L1HitLat + int64(cfg.DataFlits)
	return fmt.Sprintf("%d-%d cycles", minLat, maxLat)
}

func memRange(cfg memsys.Config) string {
	minLat := cfg.DRAMLat + cfg.L2Lat + 2*cfg.HopLat
	maxLat := cfg.DRAMLat + cfg.L2Lat + 2*int64(cfg.MeshWidth+cfg.MeshHeight-2)*cfg.HopLat + cfg.DRAMOcc
	return fmt.Sprintf("%d-%d cycles", minLat, maxLat)
}

// Table3 renders the benchmark table.
func Table3() string {
	var b strings.Builder
	b.WriteString("Table 3: benchmarks, input sizes, and relaxed atomics used\n")
	fmt.Fprintf(&b, "  %-8s %-14s %-22s %s\n", "name", "benchmark", "input", "atomic types")
	for _, e := range workloads.All() {
		fmt.Fprintf(&b, "  %-8s %-14s %-22s %s\n", e.Name, e.Full, e.Input, e.AtomicTypes)
	}
	return b.String()
}

// Table4 renders the qualitative benefits table from the model policies.
func Table4() string {
	var b strings.Builder
	b.WriteString("Table 4: benefits of DRF0, DRF1, and DRFrlx\n")
	fmt.Fprintf(&b, "  %-46s %6s %6s %8s\n", "benefit", "DRF0", "DRF1", "DRFrlx")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, row := range core.BenefitsTable() {
		fmt.Fprintf(&b, "  %-46s %6s %6s %8s\n", row.Name, mark(row.Has[0]), mark(row.Has[1]), mark(row.Has[2]))
	}
	return b.String()
}

// EnergyModelDescription documents the energy components for reports.
func EnergyModelDescription() string {
	m := energy.DefaultModel()
	return fmt.Sprintf("energy model (pJ/event): core=%.0f scratch=%.0f l1=%.0f l2=%.0f dram=%.0f flit-hop=%.0f",
		m.CoreOp, m.ScratchAccess, m.L1Access, m.L2Access, m.DRAMAccess, m.FlitHop)
}
