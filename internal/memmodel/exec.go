// Package memmodel implements the semantics half of the RAts paper: it
// enumerates the sequentially consistent executions of a litmus program
// (including the quantum-equivalent transformation of Section 3.4), builds
// the relations of Section 2.3/3.3 (program order, conflict order, so1,
// hb1, the program/conflict graph), detects the paper's five illegal race
// categories exactly as Listing 7's Herd model does, and provides a
// system-centric model of a straightforward DRFrlx machine for validating
// Theorem 3.1 on litmus tests.
package memmodel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
	"rats/internal/rtrace"
)

// Event is one dynamic memory operation of an execution. Branch markers
// are not events; their control dependencies are folded into the static
// dependency analysis.
type Event struct {
	// ID is the event's index, stable across executions of the same
	// program (events are numbered thread by thread, op by op).
	ID int
	// Thread is the issuing thread's index.
	Thread int
	// OpIndex is the op's index within its thread (including branches).
	OpIndex int
	// Op is the static operation.
	Op litmus.Op
	// Loaded is the value the event read (loads and RMWs).
	Loaded int64
	// Stored is the value the event wrote (stores and RMWs).
	Stored int64
	// TPos is the event's position in the SC total order T.
	TPos int
	// Randomized marks quantum events whose values were replaced by the
	// quantum transformation.
	Randomized bool
}

// Execution is one SC execution of a program: a total order plus the
// values transferred.
type Execution struct {
	Prog *litmus.Program
	// Events indexed by event ID.
	Events []Event
	// Order lists event IDs in SC total order.
	Order []int
	// RF maps each reading event to the writing event it read from, or -1
	// for the initial value. Randomized quantum reads map to -1.
	RF []int
	// Present[id] reports whether the event executed (guarded ops whose
	// guards failed are absent).
	Present []bool
	// Final is the memory state at the end of the execution — the
	// paper's "result of an execution" (Section 3.2.3).
	Final map[litmus.Loc]int64
	// Regs holds each thread's final register file.
	Regs [][]int64

	// key caches ResultKey; the enumerator fills it at record time from
	// the layout's presorted location order.
	key string
}

// ResultKey serializes the final memory state into a comparable string.
func (e *Execution) ResultKey() string {
	if e.key == "" {
		e.key = resultKey(e.Final)
	}
	return e.key
}

// FinalResultKey serializes a final memory state exactly as
// Execution.ResultKey does ("loc=val;" segments sorted by location
// name), so final states derived without materializing executions
// produce keys comparable to the enumerator's SCResults sets.
func FinalResultKey(final map[litmus.Loc]int64) string { return resultKey(final) }

func resultKey(final map[litmus.Loc]int64) string {
	locs := make([]string, 0, len(final))
	for l := range final {
		locs = append(locs, string(l))
	}
	sort.Strings(locs)
	b := make([]byte, 0, 16*len(locs))
	for _, l := range locs {
		b = append(b, l...)
		b = append(b, '=')
		b = strconv.AppendInt(b, final[litmus.Loc(l)], 10)
		b = append(b, ';')
	}
	return string(b)
}

// EnumOptions configures execution enumeration.
type EnumOptions struct {
	// Quantum applies the quantum transformation (Section 3.4.3): quantum
	// loads return arbitrary domain values, quantum stores write
	// arbitrary domain values.
	Quantum bool
	// Limit bounds the number of executions produced (0 = DefaultLimit).
	Limit int
	// Naive disables partial-order reduction and the parallel first-step
	// fan-out, exploring every SC interleaving sequentially. It is the
	// reference semantics the reduced enumerator is tested against; the
	// analyses only need one representative per Mazurkiewicz trace, which
	// the default mode guarantees.
	Naive bool
	// Visit, when non-nil, streams each execution to the callback instead
	// of accumulating a slice: Enumerate returns (nil, err) and holds no
	// reference to delivered executions, so memory stays bounded by the
	// consumer. The callback owns its *Execution. Unless Sequential (or
	// Naive) is set, Visit is called concurrently from the first-step
	// worker pool in an unspecified order. Returning ErrStop stops
	// enumeration cleanly (Enumerate returns nil error); any other error
	// aborts enumeration and is returned.
	Visit func(*Execution) error
	// Sequential disables the parallel first-step fan-out while keeping
	// partial-order reduction, so Visit callbacks arrive from one
	// goroutine in the deterministic sequential branch order.
	Sequential bool
	// Recycle, when non-nil, supplies previously released executions for
	// the enumerator to refill instead of allocating fresh ones — the
	// other half of the Visit streaming contract: once a consumer is done
	// with a delivered *Execution it may hand it back (e.g. via a
	// sync.Pool drained by this hook), making the steady-state pipeline
	// allocation-free. Returning nil falls back to allocation; recycled
	// executions must originate from the same Enumerate call.
	Recycle func() *Execution
	// Telemetry, when non-nil, receives live engine counters: executions
	// recorded, DFS transitions taken, sleep-set skips, and recycle/
	// allocation events. A nil Check is the zero-overhead disabled mode
	// (every counter folds into one nil-check branch). A request-trace
	// span linked via Telemetry.SetSpan additionally receives
	// enumeration span events; it rides this pointer rather than a field
	// of its own so the disabled layout never changes.
	Telemetry *telemetry.Check
	// Ctx, when non-nil, cancels the search: the DFS polls the context at
	// bounded strides (every checkStride nodes per worker), so a client
	// disconnect or deadline stops enumeration promptly instead of
	// exploring to exhaustion. A canceled search returns a *CancelError
	// wrapping the context's error, so errors.Is(err,
	// context.DeadlineExceeded) distinguishes deadlines from disconnects.
	Ctx context.Context
	// TransitionLimit, when positive, bounds the total DFS transitions
	// taken across all workers (a work budget orthogonal to Limit's
	// execution budget: it also caps searches whose interleavings mostly
	// dead-end before recording). Enforced in checkStride-sized strides,
	// so the real cutoff overshoots by at most checkStride transitions
	// per worker. Tripping it returns a *LimitError with Phase
	// "transitions".
	TransitionLimit int64
}

// checkStride is how many DFS nodes a worker explores between
// cancellation/budget checkpoints. Small enough that a 100ms deadline is
// honored within well under a millisecond of search time, large enough
// that the checks vanish from profiles.
const checkStride = 256

// budget is a search's request-scoped cancellation context and
// transition budget: every checkEvery nodes the search polls the context
// and debits the budget (shared by all workers of one search) by
// checkStride. checkEvery is 0 when neither is configured, so an
// unscoped search pays one integer compare per node and nothing else.
type budget struct {
	ctx        context.Context
	transLeft  *atomic.Int64
	transLimit int64
	checkEvery int
	sinceCheck int
}

func newBudget(ctx context.Context, transLimit int64) budget {
	b := budget{ctx: ctx, transLimit: transLimit}
	if transLimit > 0 {
		b.transLeft = new(atomic.Int64)
		b.transLeft.Store(transLimit)
	}
	if ctx != nil || b.transLeft != nil {
		b.checkEvery = checkStride
	}
	return b
}

// due counts one node of a scoped search and reports whether it is a
// checkpoint.
func (b *budget) due() bool {
	if b.sinceCheck++; b.sinceCheck < b.checkEvery {
		return false
	}
	b.sinceCheck = 0
	return true
}

// check returns the error that stops the search at a checkpoint, if any:
// a *CancelError naming phase once the context is done, or a *LimitError
// with Phase "transitions" once the budget is spent (flush, when non-nil,
// first folds the search's counter shards into tel for its snapshot).
func (b *budget) check(prog, phase string, execs int64, start time.Time, tel *telemetry.Check, flush func()) error {
	if b.ctx != nil {
		if cerr := b.ctx.Err(); cerr != nil {
			return &CancelError{Prog: prog, Phase: phase, Executions: execs, Elapsed: time.Since(start), Err: cerr}
		}
	}
	if b.transLeft != nil && b.transLeft.Add(-checkStride) <= 0 {
		if flush != nil {
			flush()
		}
		return newLimitError(prog, "transitions", int(b.transLimit), execs, start, tel)
	}
	return nil
}

// CancelError reports a search stopped by its context. It wraps the
// context's error, so errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) both see through it.
type CancelError struct {
	// Prog is the program whose search was canceled.
	Prog string
	// Phase is the search that was canceled (mirrors LimitError.Phase).
	Phase string
	// Executions is the number of executions recorded before the stop.
	Executions int64
	// Elapsed is the wall-clock time spent searching before the stop.
	Elapsed time.Duration
	// Err is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Err error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("memmodel: %s canceled (program %s: %d executions in %s): %v",
		e.Phase, e.Prog, e.Executions, e.Elapsed.Round(time.Millisecond), e.Err)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Err }

// DefaultLimit bounds enumeration to keep litmus tests tractable.
const DefaultLimit = 500_000

// ErrLimit is returned when enumeration exceeds its execution budget.
// Returned errors wrap it in a *LimitError carrying the trip diagnostics;
// match with errors.Is(err, ErrLimit) / errors.As(err, *LimitError).
var ErrLimit = fmt.Errorf("memmodel: execution limit exceeded")

// LimitError is the structured form of ErrLimit: it names the program,
// the budget, how far the search got before tripping, and — when the
// run was instrumented — the telemetry record at trip time, so an
// over-budget check is a diagnosis instead of a bare sentinel (the same
// pattern as the simulator's *DiagnosticError).
type LimitError struct {
	// Prog is the program whose enumeration tripped the budget.
	Prog string
	// Phase is the search that tripped: "enumeration" (SC executions of
	// the quantum-equivalent program) or "system model".
	Phase string
	// Limit is the execution budget that was exceeded.
	Limit int
	// Executions is the number of executions recorded before the trip.
	Executions int64
	// Elapsed is the wall-clock time spent searching before the trip.
	Elapsed time.Duration
	// Telemetry is the instrumentation record at trip time (nil when the
	// run was not instrumented).
	Telemetry *telemetry.Record
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("memmodel: execution limit exceeded (%s, limit %d, program %s: %d executions in %s)",
		e.Phase, e.Limit, e.Prog, e.Executions, e.Elapsed.Round(time.Millisecond))
}

// Unwrap keeps errors.Is(err, ErrLimit) working.
func (e *LimitError) Unwrap() error { return ErrLimit }

// newLimitError builds the structured budget error for one search.
func newLimitError(prog, phase string, limit int, execs int64, start time.Time, tel *telemetry.Check) *LimitError {
	le := &LimitError{
		Prog: prog, Phase: phase, Limit: limit,
		Executions: execs, Elapsed: time.Since(start),
	}
	if tel != nil {
		rec := tel.Record()
		le.Telemetry = &rec
	}
	return le
}

// ErrStop, returned by an EnumOptions.Visit callback, stops enumeration
// early without error: workers drain and Enumerate returns (nil, nil).
var ErrStop = errors.New("memmodel: stop enumeration")

type enumerator struct {
	// machine is the program's litmus machine (static tables plus the
	// apply/undo step). The enumerator's speed is sensitive to the
	// offsets of the hot search state below (pc at byte 288): keep new
	// fields after it.
	machine
	opts EnumOptions
	// por enables sleep-set partial-order reduction (off in Naive mode
	// and for programs with more threads than the sleep bitmask holds).
	por bool
	// count is the execution counter shared across the parallel workers;
	// it enforces Limit globally so the reduced enumerator errors exactly
	// when the sequential one would (total recorded executions > Limit).
	count *atomic.Int64
	// stop is the shared early-abort flag: set on Visit-requested stop,
	// Visit error, or limit overrun, it makes every worker unwind its
	// search promptly instead of exploring to exhaustion.
	stop *atomic.Bool

	// proto holds the static Event fields (ID, thread, op, TPos=-1);
	// record copies it wholesale and fills in per-execution values.
	proto []Event

	// mutable search state
	pc      []int
	mem     []int64 // current value per location index
	lastW   []int   // event ID of last writer per location index, -1 init
	regs    [][]int64
	order   []int
	loaded  []int64
	stored  []int64
	rf      []int
	random  []bool
	present []bool
	// sleep is the sleep set of the node being explored: a bitmask of
	// threads whose next transition was already fully explored from an
	// equivalent sibling branch and is therefore redundant here.
	sleep uint64

	// keyBuf is the reusable scratch for building result keys in record;
	// keyIntern dedups the key strings (distinct final states are few, so
	// interning makes key construction allocation-free in steady state).
	// Both are per-worker: clone leaves them nil.
	keyBuf    []byte
	keyIntern map[string]string

	execs []*Execution
	err   error

	// tel is the optional instrumentation block, shared by all clones
	// (nil when disabled); start is the enumeration's wall-clock start,
	// stamped once by Enumerate for LimitError diagnostics. Both live at
	// the end of the struct so the disabled mode keeps the hot search
	// state at the same offsets as the uninstrumented layout.
	tel   *telemetry.Check
	start time.Time
	// transitions and sleepSkips are clone-local shards of the hot-loop
	// counters, always incremented (a register add costs less than a
	// nil check per transition) and flushed into tel by flushTel once
	// per branch. clone starts fresh shards per worker.
	transitions int64
	sleepSkips  int64

	// budget is the request-scoped cancellation and transition budget,
	// shared by all clones (sinceCheck is clone-local).
	budget
	// fan, set only while runParallel expands the root, collects the
	// first-step branches in place of exploring them.
	fan *[]task
}

func newEnumerator(p *litmus.Program, opts EnumOptions) *enumerator {
	e := &enumerator{
		machine: newMachine(p, opts.Quantum),
		opts:    opts,
		por:     !opts.Naive && len(p.Threads) <= 64,
		count:   new(atomic.Int64),
		stop:    new(atomic.Bool),
		tel:     opts.Telemetry,
		budget:  newBudget(opts.Ctx, opts.TransitionLimit),
		pc:      make([]int, len(p.Threads)),
		order:   make([]int, 0, 16),
	}
	e.mem, e.regs = e.initial()
	e.lastW = make([]int, len(e.lay.locs))
	for i := range e.lastW {
		e.lastW[i] = -1
	}
	n := e.lay.n
	e.loaded = make([]int64, n)
	e.stored = make([]int64, n)
	e.rf = make([]int, n)
	e.random = make([]bool, n)
	e.present = make([]bool, n)
	e.proto = make([]Event, n)
	for t, th := range p.Threads {
		for i, id := range e.lay.id[t] {
			if id >= 0 {
				e.proto[id] = Event{ID: id, Thread: t, OpIndex: i, Op: th.Ops[i], TPos: -1}
			}
		}
	}
	return e
}

// clone copies the enumerator's full search state: runParallel's root
// step clones itself once per first-step branch, after its leading no-ops
// are consumed, so each branch explores an independent copy.
func (e *enumerator) clone() *enumerator {
	c := &enumerator{
		machine: e.machine, opts: e.opts,
		por: e.por, count: e.count, stop: e.stop,
		tel: e.tel, start: e.start, budget: e.budget,
		proto:   e.proto,
		pc:      append([]int(nil), e.pc...),
		mem:     append([]int64(nil), e.mem...),
		lastW:   append([]int(nil), e.lastW...),
		order:   append(make([]int, 0, 16), e.order...),
		loaded:  append([]int64(nil), e.loaded...),
		stored:  append([]int64(nil), e.stored...),
		rf:      append([]int(nil), e.rf...),
		random:  append([]bool(nil), e.random...),
		present: append([]bool(nil), e.present...),
		sleep:   e.sleep,
	}
	c.regs = make([][]int64, len(e.regs))
	for t := range e.regs {
		c.regs[t] = append([]int64(nil), e.regs[t]...)
	}
	return c
}

// Enumerate produces the SC executions of the program (or of its
// quantum-equivalent program when opts.Quantum is set).
//
// By default it applies sleep-set partial-order reduction and fans the
// first-step branches out over a worker pool: the result contains at
// least one representative of every Mazurkiewicz trace (executions that
// differ only in the order of non-conflicting accesses), so the set of
// final states, reads-from choices, per-event values, and every relation
// the analyses derive (conflict order, so1, hb1, races — all functions
// of the total order restricted to conflicting pairs) are identical to
// the Naive enumeration; only the multiplicity of order-equivalent
// executions shrinks. Set opts.Naive to enumerate every interleaving.
func Enumerate(p *litmus.Program, opts EnumOptions) ([]*Execution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Limit == 0 {
		opts.Limit = DefaultLimit
	}
	if opts.Ctx != nil {
		if cerr := opts.Ctx.Err(); cerr != nil {
			return nil, &CancelError{Prog: p.Name, Phase: "enumeration", Err: cerr}
		}
	}
	e := newEnumerator(p, opts)
	e.start = time.Now()
	if opts.Naive || opts.Sequential || len(p.Threads) < 2 {
		e.step()
		// A request trace linked via Telemetry.SetSpan gets one summary
		// event with the final counters (read before flushTel zeroes the
		// clone-local shards). Reading the span off the telemetry block
		// keeps EnumOptions and the enumerator layout-identical to the
		// untraced build — see the tel field's struct comment.
		if sp := e.tel.Span(); sp != nil {
			sp.Event("enumerated",
				rtrace.Int("executions", e.count.Load()),
				rtrace.Int("transitions", e.transitions),
				rtrace.Int("sleep_skips", e.sleepSkips))
		}
		e.flushTel()
		if e.err != nil {
			return nil, e.err
		}
		return e.execs, nil
	}
	return e.runParallel()
}

// flushTel folds the clone-local hot-loop counter shards into the shared
// telemetry block (no-op when disabled).
func (e *enumerator) flushTel() {
	e.tel.AddTransitions(e.transitions)
	e.tel.AddSleepSkips(e.sleepSkips)
	e.transitions, e.sleepSkips = 0, 0
}

// task is one first-step branch of a parallel enumeration: the root's
// state cloned with the branch's sleep set, and the move to make from it.
type task struct {
	c      *enumerator
	t      int
	inf    *opInfo
	lv, sv int64
}

// runParallel explores the first-step branches on a worker pool: the
// root step runs with fan set, so it consumes leading no-ops and computes
// each branch's sleep set exactly as the sequential search would, but
// exec hands every (thread, value-choice) branch over as a task instead
// of recursing. The per-branch execution lists are concatenated in the
// sequential branch order, so the output is deterministic and identical
// to a sequential run of the reduced enumerator.
func (e *enumerator) runParallel() ([]*Execution, error) {
	var tasks []task
	e.fan = &tasks
	e.step()
	e.fan = nil
	if e.err != nil {
		return nil, e.err
	}
	workers := make([]*enumerator, len(tasks))
	jobs := make(chan int)
	var wg sync.WaitGroup
	n := runtime.GOMAXPROCS(0)
	if n > len(tasks) {
		n = len(tasks)
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// When a request trace is linked on the telemetry block,
			// each pool worker reports as an "enum.worker" child span
			// with one "branch" event per explored first-step branch
			// (clone-local transition shards, read before flushTel
			// zeroes them; executions is the shared recorded total at
			// event time). nil span = nil child = no per-branch work.
			var wsp *rtrace.Span
			if psp := e.tel.Span(); psp != nil {
				wsp = psp.Child("enum.worker")
				wsp.SetInt("worker", int64(w))
			}
			for i := range jobs {
				tk := tasks[i]
				c := tk.c
				c.execOne(tk.t, tk.inf, tk.lv, tk.sv)
				if wsp != nil {
					wsp.Event("branch",
						rtrace.Int("task", int64(i)),
						rtrace.Int("executions", e.count.Load()),
						rtrace.Int("transitions", c.transitions),
						rtrace.Int("sleep_skips", c.sleepSkips))
				}
				c.flushTel()
				workers[i] = c
			}
			wsp.End()
		}(w)
	}
	for i := range tasks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := e.execs
	for _, c := range workers {
		if c.err != nil {
			return nil, c.err
		}
		out = append(out, c.execs...)
	}
	return out, nil
}

// filterSleep returns the sleeping threads that remain asleep after op
// executes: a sleeping thread's deferred transition stays redundant only
// while the transitions taken commute with it (Godefroid's sleep-set
// rule). Two ops are dependent exactly when they touch the same location
// and at least one writes; everything else commutes — threads' register
// files are disjoint, a thread's next visible op and its guard outcomes
// depend only on its own registers, and quantum value choices are
// order-independent.
func (e *enumerator) filterSleep(sleep uint64, inf *opInfo) uint64 {
	var out uint64
	for u := 0; sleep>>uint(u) != 0; u++ {
		if sleep&(1<<uint(u)) == 0 {
			continue
		}
		if e.pc[u] >= len(e.info[u]) {
			continue
		}
		uinf := &e.info[u][e.pc[u]]
		if uinf.loc != inf.loc || (!uinf.writes && !inf.writes) {
			out |= 1 << uint(u)
		}
	}
	return out
}

// step is the DFS over interleavings (and quantum value choices).
func (e *enumerator) step() {
	if e.err != nil || e.stop.Load() {
		return
	}
	if e.checkEvery > 0 && e.due() {
		if e.err = e.check(e.prog.Name, "enumeration", e.count.Load(), e.start, e.tel, e.flushTel); e.err != nil {
			e.stop.Store(true)
			return
		}
	}
	done := true
	for t := range e.prog.Threads {
		if e.pc[t] < len(e.info[t]) {
			done = false
			inf := &e.info[t][e.pc[t]]
			// Consume branch markers and disabled guarded ops eagerly:
			// they are thread-local no-ops (guard values are fixed once
			// the thread reaches them) and must not multiply
			// interleavings.
			if e.skips(inf, e.regs[t]) {
				e.pc[t]++
				e.step()
				e.pc[t]--
				return
			}
		}
	}
	if done {
		e.record()
		return
	}
	// Fan out over every runnable thread. With POR on, a thread in the
	// sleep set is skipped (its transition here only permutes
	// non-conflicting accesses of a branch already explored), each child
	// inherits the sleeping threads that commute with the chosen op, and
	// a fully explored thread joins the sleep set of its later siblings.
	// Every thread head is a visible op at this point: the skip phase
	// above consumed branch markers and disabled guarded ops, so the
	// independence checks in filterSleep see each thread's actual next
	// transition.
	entry := e.sleep
	sleep := e.sleep
	for t := range e.prog.Threads {
		if e.pc[t] >= len(e.info[t]) {
			continue
		}
		inf := &e.info[t][e.pc[t]]
		if inf.isBranch {
			continue // handled above; only one branch head processed per level
		}
		if e.por {
			if sleep&(1<<uint(t)) != 0 {
				e.sleepSkips++
				continue
			}
			e.sleep = e.filterSleep(sleep, inf)
		}
		e.exec(t, inf)
		if e.err != nil {
			return
		}
		if e.por {
			sleep |= 1 << uint(t)
		}
	}
	e.sleep = entry
}

// exec runs thread t's current op with all applicable value choices,
// recursing after each.
func (e *enumerator) exec(t int, inf *opInfo) {
	loadChoices, storeChoices := e.choices(inf)
	for _, lv := range loadChoices {
		for _, sv := range storeChoices {
			if e.fan != nil {
				c := e.clone()
				*e.fan = append(*e.fan, task{c: c, t: t, inf: inf, lv: lv, sv: sv})
				continue
			}
			e.execOne(t, inf, lv, sv)
			if e.err != nil {
				return
			}
		}
	}
}

func (e *enumerator) execOne(t int, inf *opInfo, qload, qstore int64) {
	e.transitions++
	id, loc := inf.id, inf.loc
	oldLast := e.lastW[loc]
	loaded, oldMem, oldReg := e.apply(inf, e.mem, e.regs[t], qload, qstore)
	e.rf[id] = oldLast
	if inf.quantum && inf.reads {
		e.rf[id] = -1
	}
	e.loaded[id] = loaded
	e.random[id] = inf.quantum
	if inf.writes {
		e.lastW[loc] = id
		e.stored[id] = e.mem[loc]
	}
	e.order = append(e.order, id)
	e.present[id] = true
	e.pc[t]++

	e.step()

	e.pc[t]--
	e.present[id] = false
	e.order = e.order[:len(e.order)-1]
	e.undo(inf, e.mem, e.regs[t], oldMem, oldReg)
	if inf.writes {
		e.lastW[loc] = oldLast
	}
}

// record snapshots the completed execution and either streams it to the
// Visit callback or appends it to the materialized list. The counter is
// shared across the parallel workers, so Limit bounds the total across
// all branches.
func (e *enumerator) record() {
	if e.stop.Load() {
		return
	}
	if n := e.count.Add(1); n > int64(e.opts.Limit) {
		e.flushTel() // fold this worker's shard into the trip-time snapshot
		e.err = newLimitError(e.prog.Name, "enumeration", e.opts.Limit, n-1, e.start, e.tel)
		e.stop.Store(true)
		return
	}
	e.tel.IncEnumerated()
	var ex *Execution
	if e.opts.Recycle != nil {
		ex = e.opts.Recycle()
	}
	if ex != nil {
		e.tel.IncRecycled()
	} else {
		e.tel.IncAllocated()
		ex = &Execution{
			Events:  make([]Event, e.lay.n),
			Order:   make([]int, 0, len(e.order)),
			RF:      make([]int, e.lay.n),
			Present: make([]bool, e.lay.n),
			Final:   make(map[litmus.Loc]int64, len(e.lay.locs)),
			Regs:    make([][]int64, len(e.regs)),
		}
		for t := range e.regs {
			ex.Regs[t] = make([]int64, len(e.regs[t]))
		}
	}
	ex.Prog = e.prog
	ex.Order = append(ex.Order[:0], e.order...)
	copy(ex.RF, e.rf)
	copy(ex.Present, e.present)
	for i, l := range e.lay.locs {
		ex.Final[l] = e.mem[i]
	}
	// Serialize the result key directly from the presorted location order
	// (identical to resultKey(ex.Final), minus its per-call sort).
	e.keyBuf = e.lay.appendResultKey(e.keyBuf[:0], e.mem)
	if e.keyIntern == nil {
		e.keyIntern = make(map[string]string, 8)
	}
	key, ok := e.keyIntern[string(e.keyBuf)]
	if !ok {
		key = string(e.keyBuf)
		e.keyIntern[key] = key
	}
	ex.key = key
	// The static Event fields come from the prototype; only values and
	// the total-order position vary per execution. Absent events keep the
	// prototype's zero values and TPos -1.
	copy(ex.Events, e.proto)
	for id := 0; id < e.lay.n; id++ {
		if e.present[id] {
			ev := &ex.Events[id]
			ev.Loaded = e.loaded[id]
			ev.Stored = e.stored[id]
			ev.Randomized = e.random[id]
		} else {
			ex.RF[id] = -1
		}
	}
	for pos, id := range ex.Order {
		ex.Events[id].TPos = pos
	}
	for t := range e.regs {
		copy(ex.Regs[t], e.regs[t])
	}
	if e.opts.Visit != nil {
		if err := e.opts.Visit(ex); err != nil {
			if !errors.Is(err, ErrStop) {
				e.err = err
			}
			e.stop.Store(true)
		}
		return
	}
	e.execs = append(e.execs, ex)
}

// Results returns the set of distinct final memory states over a slice of
// executions, keyed by ResultKey.
func Results(execs []*Execution) map[string]map[litmus.Loc]int64 {
	out := map[string]map[litmus.Loc]int64{}
	for _, e := range execs {
		out[e.ResultKey()] = e.Final
	}
	return out
}
