// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator, the race checker and the checking service in-process,
// through the entry points the CLIs use, and prints one JSON result line.
//
//	perfbench -workload figures-paper|litmus-suite|serve-mix -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// reports the per-layer metrics, timed around calls into each layer and
// read from the counters the program exposes. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Seeds: the default one, and one held out for confirming a claimed gain
// on inputs the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer declare every metric with its unit, in report
// order. BENCHMARK.json declares the same names (checked by the tests).
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"workloads.build_s", "s"},
	{"workloads.trace_ops", "count"},
	{"system.load_s", "s"},
	{"system.run_s", "s"},
	{"system.run_ns_per_op", "ns"},
	{"system.sim_mips", "M/s"},
	{"system.cycles", "count"},
	{"system.core_ops", "count"},
	{"cu.warp_issue_stalls", "count"},
	{"memsys.l1_accesses", "count"},
	{"memsys.l1_hit_ratio", "ratio"},
	{"memsys.l2_accesses", "count"},
	{"memsys.l2_hit_ratio", "ratio"},
	{"memsys.mshr_coalesced", "count"},
	{"memsys.sb_full_stalls", "count"},
	{"memsys.dram_accesses", "count"},
	{"noc.messages", "count"},
	{"noc.flit_hops", "count"},
	{"harness.worker_idle_s", "s"},
	{"energy.report_s", "s"},
	{"litmus.parse_us", "us"},
	{"memmodel.canon_us", "us"},
	{"memmodel.canon_allocs", "count"},
	{"memmodel.static_us", "us"},
	{"memmodel.enum_us", "us"},
	{"memmodel.executions", "count"},
	{"memmodel.transitions", "count"},
	{"memmodel.pruned_pct", "%"},
	{"memmodel.analyze_us", "us"},
	{"memmodel.analyze_ns_per_exec", "ns"},
	{"solve.check_us", "us"},
	{"solve.decisions", "count"},
	{"solve.propagations", "count"},
	{"solve.conflicts", "count"},
	{"solve.learned", "count"},
	{"sysmodel.theorem_us", "us"},
	{"sysmodel.memo_hits", "count"},
	{"serve.decode_us", "us"},
	{"serve.validate_us", "us"},
	{"serve.cache_us", "us"},
	{"serve.serialize_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.gates_us", "us"},
	{"serve.flight_us", "us"},
	{"serve.witness_us", "us"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"overhead.wall_s", "s"},
	{"overhead.op_p50_ms", "ms"},
	{"overhead.op_p99_ms", "ms"},
	{"overhead.ops_per_s", "1/s"},
}

// run carries one invocation's settings to a workload.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	workers int // GOMAXPROCS, capped at nproc
	rec     *recorder
	notes   []string // human-readable lines printed before the result
	// unitWalls keeps the first units' wall times for the report.
	unitWalls []float64
	heaps     []float64 // live heap after the first units, MB
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// unitStats is what one unit of work (one figure regeneration, one pass
// of the check list, one pass of the request list) yields.
type unitStats struct {
	wall      float64   // seconds
	ops       int64     // operations completed
	latencies []float64 // per-operation latency, ms
}

// tally accumulates outcomes: every operation is attempted, and any
// mismatch, error or refused request is failed. correct turns false only
// on a wrong answer from a path the benchmark vouches for (see README).
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
	correct           bool
	firstErr          []string
}

func (t *tally) op(ok bool, vouched bool, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if vouched {
		t.correct = false
	}
	if len(t.firstErr) < 5 {
		t.firstErr = append(t.firstErr, what)
	}
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(r *run, t *tally) (map[string]float64, error)
}

var benchWorkloads = []workload{
	{"figures-paper", runFigures},
	{"litmus-suite", runLitmus},
	{"serve-mix", runServe},
}

func main() {
	var (
		name    = flag.String("workload", "", "figures-paper, litmus-suite or serve-mix")
		seed    = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_build/out", "directory for the result record and the Chrome trace")
	)
	flag.Parse()
	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	r := &run{seed: *seed, seconds: *seconds, traced: *trace == 1, workers: workers}
	meta := runMeta(*name, *seed, *trace, workers)
	if r.traced {
		r.rec = newRecorder(fmt.Sprintf("%s-%d", *name, *seed))
	}
	t := &tally{correct: true}
	values, err := w.run(r, t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: t.correct && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	decl := endToEnd
	if r.traced {
		decl = perLayer
	} else {
		values["live_heap_mb"] = median(r.heaps)
	}
	r.notef("peak resident memory %.1f MB (not a metric: it depends on when GC runs)", peakRSSMB())
	for _, d := range decl {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // the workload does not exercise this layer
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if r.rec != nil {
		r.notes = append(r.notes, r.rec.selfTimeTable(12)...)
		if err := writeFile(base+".chrome.json", r.rec.writeChrome); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: chrome trace:", err)
			os.Exit(1)
		}
		r.notef("chrome trace: %s.chrome.json", base)
	}
	rec, _ := json.Marshal(map[string]any{"meta": meta, "result": res})
	if err := os.WriteFile(base+".json", append(rec, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	r.notef("first unit wall times (s): %.3f", r.unitWalls)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, e := range t.firstErr {
		fmt.Println("failed:", e)
	}
	fmt.Printf("failed_frac %.6f (%d of %d operations)\n", float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted)
	for _, d := range decl {
		fmt.Printf("%-32s %16.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measure runs units until the next one would end past the run's time
// budget, and always at least min of them. unit gets its index.
func (r *run) measure(min int, unit func(i int) (unitStats, error)) ([]unitStats, error) {
	var out []unitStats
	start := time.Now()
	for i := 0; ; i++ {
		u, err := unit(i)
		if err != nil {
			return out, err
		}
		out = append(out, u)
		if len(r.unitWalls) < 12 {
			r.unitWalls = append(r.unitWalls, u.wall)
		}
		el := time.Since(start).Seconds()
		if len(out) >= min && el+el/float64(len(out)) > r.seconds {
			return out, nil
		}
	}
}

// endToEndValues folds the units of an untraced run into the end-to-end
// metrics: the median unit wall time, latency percentiles over every
// operation, and operations per second over all units.
func endToEndValues(setups []float64, units []unitStats) map[string]float64 {
	var walls, lat []float64
	var ops int64
	var wall float64
	for _, u := range units {
		walls = append(walls, u.wall)
		lat = append(lat, u.latencies...)
		ops += u.ops
		wall += u.wall
	}
	return map[string]float64{
		"setup_s":   median(setups),
		"wall_s":    median(walls),
		"op_p50_ms": quantile(lat, 0.50),
		"op_p99_ms": quantile(lat, 0.99),
		"ops_per_s": float64(ops) / wall,
	}
}

// overhead reports traced minus untraced for the unit metrics, from
// units of both kinds interleaved in one traced run.
func overhead(plain, traced []unitStats, out map[string]float64) {
	a, b := endToEndValues(nil, plain), endToEndValues(nil, traced)
	for _, k := range []string{"wall_s", "op_p50_ms", "op_p99_ms", "ops_per_s"} {
		out["overhead."+k] = b[k] - a[k]
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// timeIt runs f n times and returns each wall time in seconds.
func timeIt(n int, f func(i int) error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runMeta records what a result row needs to be compared across
// machines: parallelism, toolchain, source revision, seed and a fixed
// calibration loop's time.
func runMeta(name string, seed int64, trace, workers int) map[string]any {
	return map[string]any{
		"workload":       name,
		"seed":           seed,
		"default_seed":   defaultSeed,
		"held_out_seed":  heldOutSeed,
		"trace":          trace,
		"gomaxprocs":     workers,
		"nproc":          runtime.NumCPU(),
		"go":             runtime.Version(),
		"commit":         commit(),
		"source_sha256":  sourceDigest(),
		"calibration_ms": calibrate(),
	}
}

// calibrate times a fixed single-threaded loop (xorshift over a 1 MiB
// table: integer work plus cache traffic), median of five.
func calibrate() float64 {
	table := make([]uint64, 1<<17)
	var sink uint64
	times, _ := timeIt(5, func(int) error {
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(1<<17-1)] += x
		}
		sink += table[0]
		return nil
	})
	_ = sink
	return median(times) * 1e3
}

// commit reads the checked-out revision from .git without running git;
// a checkout without .git reports "none" and relies on source_sha256.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "none"
}

// sourceDigest hashes go.mod and every Go file under cmd/ and internal/,
// so rows from checkouts without git history still name their source.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range append([]string{"go.mod"}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest hashes text for the pinned-output checks.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// liveHeapMB forces a GC and returns the heap it marked live, in MB.
// Called at the end of a unit of work while keep, the unit's outputs,
// are still referenced: the memory the system holds for one unit's
// result, which unlike peak RSS does not depend on where GC cycles fall.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	runtime.KeepAlive(keep)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// sampleHeap records the live heap after the first few units of an
// untraced run; the forced GC happens outside the unit's timing.
func (r *run) sampleHeap(keep ...any) {
	if !r.traced && len(r.heaps) < 3 {
		r.heaps = append(r.heaps, liveHeapMB(keep...))
	}
}
