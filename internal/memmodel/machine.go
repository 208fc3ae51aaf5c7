package memmodel

import (
	"bytes"
	"sort"
	"strconv"
	"time"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/rel"
	"rats/internal/memmodel/telemetry"
)

// The litmus machine is the one interpreter of litmus op semantics. Its
// state is which ops have run (a pc per thread, or a done-set of events),
// the shared memory (mem, indexed by location) and every thread's
// registers; its step is apply/undo, the only code that evaluates guards,
// operands, CAS expected values and atomic ops, and hands out the quantum
// value choices. Every search runs on it:
//
//   - the enumerator (exec.go) walks per-thread pcs through the SC
//     interleavings and records each completed execution;
//   - the explorer (below) searches done-set states under an order
//     relation, memoized, for the reachable final results. With order =
//     PreservedPO and real values it is the system-centric machine of
//     Section 3.8 (SystemResults); with order = program order, quantum
//     value choices and the symmetry classes of Canonicalize it is the
//     solver's SC-result search (ExploreSC).

// eventLayout precomputes the static event numbering of a program.
type eventLayout struct {
	// id[t][i] is the event ID of thread t's op i, or -1 for branches.
	id [][]int
	// locID[t][i] is the location index of thread t's op i, or -1 for
	// branches. Indexes locs; the searches' memory and last-writer state
	// are slices over it instead of maps keyed by location name.
	locID [][]int
	// locs maps location indices back to names, in Locs() order.
	locs []litmus.Loc
	// sortedLoc lists location indices in ascending name order — the
	// order ResultKey serializes, so result keys need no per-call sort.
	sortedLoc []int
	// n is the total number of events.
	n int
}

func layout(p *litmus.Program) eventLayout {
	var l eventLayout
	l.locs = p.Locs()
	idx := make(map[litmus.Loc]int, len(l.locs))
	for i, loc := range l.locs {
		idx[loc] = i
	}
	l.sortedLoc = make([]int, len(l.locs))
	for i := range l.sortedLoc {
		l.sortedLoc[i] = i
	}
	sort.Slice(l.sortedLoc, func(a, b int) bool {
		return l.locs[l.sortedLoc[a]] < l.locs[l.sortedLoc[b]]
	})
	l.id = make([][]int, len(p.Threads))
	l.locID = make([][]int, len(p.Threads))
	for t, th := range p.Threads {
		l.id[t] = make([]int, len(th.Ops))
		l.locID[t] = make([]int, len(th.Ops))
		for i, op := range th.Ops {
			if op.IsBranch {
				l.id[t][i] = -1
				l.locID[t][i] = -1
				continue
			}
			l.id[t][i] = l.n
			l.locID[t][i] = idx[op.Loc]
			l.n++
		}
	}
	return l
}

// appendResultKey serializes mem exactly as Execution.ResultKey does
// ("loc=val;" segments in location-name order).
func (l *eventLayout) appendResultKey(b []byte, mem []int64) []byte {
	for _, li := range l.sortedLoc {
		b = append(b, l.locs[li]...)
		b = append(b, '=')
		b = strconv.AppendInt(b, mem[li], 10)
		b = append(b, ';')
	}
	return b
}

// QuantumDomain returns the value domain used for randomized quantum
// accesses: the program's explicit domain if set, otherwise every constant
// appearing in the program plus {0, 1}.
func QuantumDomain(p *litmus.Program) []int64 {
	if len(p.QuantumDomain) > 0 {
		return append([]int64(nil), p.QuantumDomain...)
	}
	set := map[int64]bool{0: true, 1: true}
	for _, v := range p.Init {
		set[v] = true
	}
	for t := range p.Threads {
		ops := p.Threads[t].Ops
		for i := range ops {
			if ops[i].IsBranch {
				continue
			}
			set[ops[i].Operand.Const] = true
			set[ops[i].Expected.Const] = true
		}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// opInfo is one op's static summary for the searches' hot loops.
type opInfo struct {
	op        *litmus.Op
	isBranch  bool
	hasGuards bool
	writes    bool
	reads     bool
	// quantum folds the search's quantum flag into the op's class: the
	// op takes quantum value choices.
	quantum bool
	dst     litmus.Reg
	loc     int // location index, -1 for branches
	id      int // event ID, -1 for branches
}

// machine holds one program's static tables; searches keep the state
// (pc or done-set, mem, regs) in their own flat fields and step it with
// apply/undo.
type machine struct {
	prog   *litmus.Program
	lay    eventLayout
	domain []int64
	// info caches the static per-op facts ([t][opIndex]), shared
	// read-only by every clone of a search.
	info [][]opInfo
}

// newMachine builds p's machine; quantum enables the quantum
// transformation's value choices (Section 3.4.3).
func newMachine(p *litmus.Program, quantum bool) machine {
	m := machine{prog: p, lay: layout(p), domain: QuantumDomain(p)}
	m.info = make([][]opInfo, len(p.Threads))
	for t, th := range p.Threads {
		m.info[t] = make([]opInfo, len(th.Ops))
		for i := range th.Ops {
			op := &th.Ops[i]
			m.info[t][i] = opInfo{
				op:        op,
				isBranch:  op.IsBranch,
				hasGuards: len(op.Guards) > 0,
				writes:    op.Writes(),
				reads:     op.Reads(),
				quantum:   quantum && op.Class == core.Quantum,
				dst:       op.Dst,
				loc:       m.lay.locID[t][i],
				id:        m.lay.id[t][i],
			}
		}
	}
	return m
}

// initial returns the initial memory and zeroed register files.
func (m *machine) initial() (mem []int64, regs [][]int64) {
	mem = make([]int64, len(m.lay.locs))
	for i, l := range m.lay.locs {
		mem[i] = m.prog.Init[l]
	}
	regs = make([][]int64, len(m.prog.Threads))
	for t, th := range m.prog.Threads {
		regs[t] = make([]int64, th.NumRegs())
	}
	return mem, regs
}

// skips reports whether an op is a no-op for a thread whose registers
// are regs: a branch marker, or an op whose guards fail. Guard outcomes
// depend only on the thread's own registers.
func (m *machine) skips(inf *opInfo, regs []int64) bool {
	return inf.isBranch || (inf.hasGuards && guardsFail(inf.op, regs))
}

// guardsFail evaluates an op's guards. It stays out of line so skips
// inlines into the searches' hot loops.
//
//go:noinline
func guardsFail(op *litmus.Op, regs []int64) bool { return !op.GuardsHold(regs) }

// oneChoice is the value-choice list of non-quantum accesses (the value
// is ignored; the access reads/computes its real value).
var oneChoice = []int64{0}

// choices returns the quantum load/store value-choice lists for an op.
func (m *machine) choices(inf *opInfo) (loads, stores []int64) {
	loads, stores = oneChoice, oneChoice
	if inf.quantum {
		if inf.reads {
			loads = m.domain
		}
		if inf.writes {
			stores = m.domain
		}
	}
	return loads, stores
}

// apply runs a visible op on mem and regs (the issuing thread's
// registers) with the quantum value choices qload/qstore, returning the
// value it loaded plus the memory and register values it overwrote, for
// undo. The destination register is written before the operand and
// expected value are evaluated.
func (m *machine) apply(inf *opInfo, mem, regs []int64, qload, qstore int64) (loaded, oldMem, oldReg int64) {
	oldMem = mem[inf.loc]
	loaded = oldMem
	if inf.quantum && inf.reads {
		loaded = qload
	}
	if inf.dst != litmus.NoReg {
		oldReg = regs[inf.dst]
		regs[inf.dst] = loaded
	}
	if inf.writes {
		if inf.quantum {
			mem[inf.loc] = qstore
		} else {
			op := inf.op
			mem[inf.loc] = op.AOp.Apply(oldMem, op.Operand.Eval(regs), op.Expected.Eval(regs))
		}
	}
	return loaded, oldMem, oldReg
}

// undo reverts apply.
func (m *machine) undo(inf *opInfo, mem, regs []int64, oldMem, oldReg int64) {
	if inf.writes {
		mem[inf.loc] = oldMem
	}
	if inf.dst != litmus.NoReg {
		regs[inf.dst] = oldReg
	}
}

// ExploreStats are the explorer's search counters, in the DPLL
// vocabulary the solver reports.
type ExploreStats struct {
	// Executions counts completed paths: searches that ran every event.
	Executions int64
	// States counts memoized states (learned entries).
	States int64
	// MemoHits counts arrivals at an already-memoized state (conflicts).
	MemoHits int64
	// Decisions and Propagations split States by whether more than one
	// move (event, value choice) was enabled.
	Decisions, Propagations int64
}

// explorer is the memoized search over the machine's (done-set, mem,
// regs) states. An event is enabled once all its order-predecessors have
// run; a guarded event whose guards fail runs as a no-op. The state fully
// determines what is reachable from it, so each state is expanded once:
// interleavings of commuting moves converge instead of multiplying.
type explorer struct {
	machine
	// ev[id] is event id's op; thread[id] its thread; preds[id] the
	// events order requires before it; threadEvs[t] thread t's events.
	ev        []*opInfo
	thread    []int
	preds     [][]int
	threadEvs [][]int
	// classes groups interchangeable threads: within a class, per-thread
	// (done, regs) sub-keys enter the memo key as a sorted multiset,
	// which is sound because permuting identical threads is a program
	// automorphism that fixes memory.
	classes [][]int

	// phase names the search in errors; limit (> 0) bounds completed
	// executions; budget cancels and bounds it like EnumOptions.Ctx and
	// TransitionLimit.
	phase string
	limit int
	budget
	tel   *telemetry.Check
	start time.Time

	done    []bool
	nDone   int
	mem     []int64
	regs    [][]int64
	seen    map[string]struct{}
	results map[string]bool
	execs   int
	stats   ExploreStats
	keyBuf  []byte
	sub     []byte
	offs    [][2]int
	err     error
}

// newExplorer builds the explorer of p's machine under order (a relation
// over p's events); classes nil means no thread symmetry.
func newExplorer(p *litmus.Program, order rel.Rel, quantum bool, classes [][]int) *explorer {
	x := &explorer{
		machine: newMachine(p, quantum),
		start:   time.Now(),
		seen:    map[string]struct{}{},
		results: map[string]bool{},
	}
	x.mem, x.regs = x.initial()
	n := x.lay.n
	x.done = make([]bool, n)
	x.ev = make([]*opInfo, n)
	x.thread = make([]int, n)
	x.preds = make([][]int, n)
	x.threadEvs = make([][]int, len(p.Threads))
	for t := range x.info {
		for i := range x.info[t] {
			if inf := &x.info[t][i]; inf.id >= 0 {
				x.ev[inf.id], x.thread[inf.id] = inf, t
				x.threadEvs[t] = append(x.threadEvs[t], inf.id)
			}
		}
	}
	order.ForEach(func(j, i int) { x.preds[i] = append(x.preds[i], j) })
	if classes == nil {
		for t := range p.Threads {
			classes = append(classes, []int{t})
		}
	}
	x.classes = classes
	return x
}

// ExploreSC computes the SC result set of p's quantum-equivalent program
// on the explorer: order = program order, quantum value choices, and the
// memo keyed under classes (Canonical.Classes when p is canonical).
// opts supplies Ctx, TransitionLimit and Telemetry; errors carry Phase
// "solve".
func ExploreSC(p *litmus.Program, classes [][]int, opts CheckOptions) (map[string]bool, ExploreStats, error) {
	lay := layout(p)
	po := rel.New(lay.n)
	for _, ids := range lay.id {
		prev := -1
		for _, id := range ids {
			if id >= 0 {
				if prev >= 0 {
					po.Set(prev, id)
				}
				prev = id
			}
		}
	}
	x := newExplorer(p, po, true, classes)
	x.phase, x.tel = "solve", opts.Telemetry
	x.budget = newBudget(opts.Ctx, opts.TransitionLimit)
	x.step()
	return x.results, x.stats, x.err
}

func (x *explorer) step() {
	if x.err != nil {
		return
	}
	if x.checkEvery > 0 && x.due() {
		if x.err = x.check(x.prog.Name, x.phase, int64(x.execs), x.start, x.tel, nil); x.err != nil {
			return
		}
	}
	if x.nDone == len(x.ev) {
		if x.execs++; x.limit > 0 && x.execs > x.limit {
			x.err = newLimitError(x.prog.Name, x.phase, x.limit, int64(x.execs-1), x.start, x.tel)
			return
		}
		x.stats.Executions++
		x.tel.IncEnumerated()
		x.keyBuf = x.lay.appendResultKey(x.keyBuf[:0], x.mem)
		if !x.results[string(x.keyBuf)] {
			x.results[string(x.keyBuf)] = true
		}
		return
	}
	k := x.stateKey()
	if _, ok := x.seen[string(k)]; ok {
		x.stats.MemoHits++
		x.tel.AddMemoHits(1)
		return
	}
	x.seen[string(k)] = struct{}{}
	x.stats.States++
	x.tel.IncTransition()
	moves := 0
next:
	for id, inf := range x.ev {
		if x.done[id] {
			continue
		}
		for _, pr := range x.preds[id] {
			if !x.done[pr] {
				continue next
			}
		}
		regs := x.regs[x.thread[id]]
		x.done[id] = true
		x.nDone++
		if x.skips(inf, regs) {
			moves++
			x.step()
		} else {
			loads, stores := x.choices(inf)
			for _, lv := range loads {
				for _, sv := range stores {
					moves++
					_, oldMem, oldReg := x.apply(inf, x.mem, regs, lv, sv)
					x.step()
					x.undo(inf, x.mem, regs, oldMem, oldReg)
				}
			}
		}
		x.done[id] = false
		x.nDone--
	}
	if moves > 1 {
		x.stats.Decisions++
	} else {
		x.stats.Propagations++
	}
}

// stateKey serializes the state into keyBuf: memory, then each symmetry
// class's per-thread (done, regs) sub-keys, sorted within a class. The
// sort runs over offsets into one scratch buffer (classes are small), so
// building a key allocates nothing.
func (x *explorer) stateKey() []byte {
	b := x.keyBuf[:0]
	for _, v := range x.mem {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ',')
	}
	for _, ts := range x.classes {
		b = append(b, '|')
		if len(ts) == 1 {
			b = x.appendThread(b, ts[0])
			continue
		}
		x.sub, x.offs = x.sub[:0], x.offs[:0]
		for _, t := range ts {
			start := len(x.sub)
			x.sub = x.appendThread(x.sub, t)
			x.offs = append(x.offs, [2]int{start, len(x.sub)})
			for i := len(x.offs) - 1; i > 0; i-- {
				o, p := x.offs[i], x.offs[i-1]
				if bytes.Compare(x.sub[o[0]:o[1]], x.sub[p[0]:p[1]]) >= 0 {
					break
				}
				x.offs[i], x.offs[i-1] = p, o
			}
		}
		for _, o := range x.offs {
			b = append(b, ';')
			b = append(b, x.sub[o[0]:o[1]]...)
		}
	}
	x.keyBuf = b
	return b
}

// appendThread serializes thread t's done events and registers.
func (x *explorer) appendThread(b []byte, t int) []byte {
	for _, id := range x.threadEvs[t] {
		if x.done[id] {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	for _, r := range x.regs[t] {
		b = append(b, ':')
		b = strconv.AppendInt(b, r, 10)
	}
	return b
}
