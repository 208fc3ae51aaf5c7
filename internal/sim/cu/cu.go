// Package cu models the compute units (GPU CUs and the CPU core) that
// issue trace operations into the memory system. This is where the
// consistency model acts: the per-class Behavior from internal/core
// decides whether an atomic self-invalidates the L1 (acquire), flushes
// the store buffer (release), and how much it may overlap with other
// outstanding accesses (Table 4 of the paper).
package cu

import (
	"math"

	"rats/internal/core"
	"rats/internal/probe"
	"rats/internal/sim/memsys"
	"rats/internal/stats"
	"rats/internal/trace"
)

// warpState tracks one warp's progress through its op stream.
type warpState struct {
	ops *trace.Warp
	pc  int
	// kind and class cache ops.Ops[pc]'s kind and class (valid while
	// !atEnd), so the per-cycle issue gates never touch the trace.
	kind  trace.Kind
	class core.Class
	// id is the global warp index (probe attribution).
	id int

	// busyUntil blocks issue during compute/scratch ops.
	busyUntil int64
	// outLoads / outAtomics count outstanding memory *instructions* (a
	// 32-lane atomic is one instruction whose lanes are all in flight at
	// once, as on a real SIMT pipeline).
	outLoads   int
	outAtomics int
	// fence blocks all issue until an SC (OverlapNone) access completes.
	fence bool
	// waitingFlush blocks the current op until the store buffer drains.
	waitingFlush bool
	// flushDone is set by the flush callback.
	flushDone bool
	// atBarrier marks the warp parked at a device-wide barrier.
	atBarrier bool
	// atEnd marks the op stream exhausted; the warp retires (done) once
	// trailing compute and outstanding memory operations finish.
	atEnd bool
	done  bool

	// curStall/stallSince track the open stall interval for the probe
	// layer (maintained only when a hub is attached).
	curStall   probe.StallReason
	stallSince int64

	// groups are the warp's in-flight instruction groups: one per memory
	// instruction, counting its transactions still outstanding. Slots are
	// reused once a group completes, so steady-state issue allocates
	// nothing (the per-transaction completion closures this replaces were
	// the CU's dominant allocation source).
	groups []instrGroup
}

// instrGroup counts one memory instruction's outstanding transactions.
type instrGroup struct {
	remaining int
	atomic    bool
	active    bool
}

// allocGroup claims a free group slot (or grows) for an instruction with
// n transactions.
func (w *warpState) allocGroup(n int, atomic bool) int32 {
	for i := range w.groups {
		if !w.groups[i].active {
			w.groups[i] = instrGroup{remaining: n, atomic: atomic, active: true}
			return int32(i)
		}
	}
	w.groups = append(w.groups, instrGroup{remaining: n, atomic: atomic, active: true})
	return int32(len(w.groups) - 1)
}

// advance moves the warp to its next op, caching that op's kind and
// class, or marks the stream exhausted.
func (w *warpState) advance() {
	w.pc++
	w.load()
}

// load caches the op at pc, or marks the stream exhausted.
func (w *warpState) load() {
	if w.pc >= len(w.ops.Ops) {
		w.atEnd = true
		return
	}
	op := &w.ops.Ops[w.pc]
	w.kind, w.class = op.Kind, op.Class
}

// CU drives the warps placed on one node.
type CU struct {
	env  *memsys.Env
	node int
	l1   *memsys.L1

	warps []*warpState
	rr    int
	// issueWidth is how many ops Tick may issue per cycle: one for a
	// GPU CU, CPUIssuePerCycle for the CPU core.
	issueWidth int

	// coalescer is the queue of line transactions awaiting L1 issue;
	// coalescer[coalHead:] holds the live entries (head-index draining
	// reuses the backing array, pre-sized to the configured queue depth).
	coalescer []*memsys.Txn
	coalHead  int
	txnSeq    *int64

	// txnFree recycles completed transactions; lineScratch is the reusable
	// buffer linesOf dedupes into (valid until its next call).
	txnFree     []*memsys.Txn
	lineScratch []uint64

	st *stats.Stats

	// barrierWaiters counts warps currently parked at a barrier; the
	// system driver releases them.
	barrierWaiters int
	// retired counts warps with done set.
	retired int

	// group, when set, is the Group driving this CU as its idx-th
	// member; it mirrors the two counts above machine-wide.
	group *Group
	idx   int

	// Sleep state (see sleep). While sleepUntil is nonzero the CU is
	// asleep until that cycle (MaxInt64: until woken), and its Group
	// neither ticks nor polls it; parked marks a sleep behind the
	// coalescer head, which its L1 also ends. idleStalls are the issue
	// stalls its last Tick counted, charged once per processed cycle
	// slept through; sleptAt is the Group's tick count up to which they
	// are charged.
	// changed records whether anything moved since the last Tick began;
	// a Tick that changed nothing is the only one whose stall count is
	// representative of the cycles that follow it.
	sleepUntil int64
	parked     bool
	sleptAt    int64
	idleStalls int64
	changed    bool
}

// New builds a CU on the given node over its L1.
func New(env *memsys.Env, node int, l1 *memsys.L1, txnSeq *int64) *CU {
	return &CU{env: env, node: node, l1: l1, txnSeq: txnSeq, st: env.Stats, issueWidth: 1,
		coalescer: make([]*memsys.Txn, 0, env.Cfg.CoalescerQueue)}
}

// depth returns the number of transactions queued in the coalescer.
func (c *CU) depth() int { return len(c.coalescer) - c.coalHead }

// newTxn takes a transaction from the free list (or allocates one),
// zeroed, with Group set to the no-group sentinel.
func (c *CU) newTxn() *memsys.Txn {
	if n := len(c.txnFree); n > 0 {
		t := c.txnFree[n-1]
		c.txnFree = c.txnFree[:n-1]
		*t = memsys.Txn{Group: -1}
		return t
	}
	return &memsys.Txn{Group: -1}
}

// TxnDone implements memsys.Completer: it closes the transaction's
// instruction group (decrementing the warp's outstanding counts when the
// group empties) and recycles the transaction. Safe because nothing in
// the memory system retains a transaction past its completion call.
func (c *CU) TxnDone(t *memsys.Txn, cycle, value int64) {
	if t.Group >= 0 {
		w := t.Owner.(*warpState)
		g := &w.groups[t.Group]
		g.remaining--
		if g.remaining == 0 {
			g.active = false
			if g.atomic {
				w.outAtomics--
			} else {
				w.outLoads--
			}
			c.clearFence(w)
			// Every issue gate is a function of the outstanding counts.
			c.wake()
		}
	}
	c.txnFree = append(c.txnFree, t)
}

// AddWarp assigns a warp to this CU, numbering it globally in placement
// order.
func (c *CU) AddWarp(w *trace.Warp) {
	ws := &warpState{ops: w, id: c.env.WarpSeq}
	c.env.WarpSeq++
	ws.load()
	if ws.atEnd {
		ws.done = true
		c.retire()
	}
	if len(c.warps) == 0 && w.IsCPU {
		c.issueWidth = c.env.Cfg.CPUIssuePerCycle
	}
	c.warps = append(c.warps, ws)
}

// retire counts one more retired warp.
func (c *CU) retire() {
	c.retired++
	if g := c.group; g != nil {
		g.retired++
	}
}

// Done reports whether every warp has retired and all transactions
// completed. A warp retires only with nothing outstanding and never
// issues again, so the retired count alone covers its transactions.
func (c *CU) Done() bool { return c.depth() == 0 && c.retired == len(c.warps) }

// BarrierWaiters returns the number of warps parked at a barrier.
func (c *CU) BarrierWaiters() int { return c.barrierWaiters }

// ReleaseBarrier resumes every parked warp (called by the system driver
// once all warps in the device have arrived and stores have drained).
func (c *CU) ReleaseBarrier() {
	for _, w := range c.warps {
		if w.atBarrier {
			w.atBarrier = false
			w.advance()
		}
	}
	if g := c.group; g != nil {
		g.waiters -= c.barrierWaiters
	}
	c.barrierWaiters = 0
	c.wake()
}

// L1 exposes the CU's cache controller (for the barrier protocol).
func (c *CU) L1() *memsys.L1 { return c.l1 }

// linesOf groups addresses by cache line, preserving first-touch order.
// The result is the CU's reusable scratch buffer, valid only until the
// next call; with at most one warp's worth of lanes the linear-scan
// dedupe beats a map and allocates nothing.
func (c *CU) linesOf(addrs []uint64) []uint64 {
	lines := c.lineScratch[:0]
	for _, a := range addrs {
		l := a / c.env.Cfg.LineSize
		dup := false
		for _, seen := range lines {
			if seen == l {
				dup = true
				break
			}
		}
		if !dup {
			lines = append(lines, l)
		}
	}
	c.lineScratch = lines
	return lines
}

// canIssue evaluates the consistency gates for a warp's next op, from
// the warp's cached op kind and class.
func (c *CU) canIssue(w *warpState) bool {
	switch w.kind {
	case trace.Load, trace.Store, trace.Atomic:
	case trace.Barrier, trace.Join:
		// Barriers carry paired semantics; joins model register
		// dependencies: both wait for everything outstanding.
		return w.outLoads == 0 && w.outAtomics == 0
	default:
		return true
	}
	b := c.env.Cfg.Behavior(w.class)
	if b.Overlap == core.OverlapNone {
		if w.outLoads > 0 || w.outAtomics > 0 {
			return false
		}
	}
	if b.Overlap == core.OverlapAtomicSerial && w.kind == trace.Atomic && w.outAtomics > 0 {
		return false
	}
	// Bound per-warp MLP (instructions in flight).
	if w.outLoads+w.outAtomics >= c.env.Cfg.MaxOutstandingPerWarp {
		return false
	}
	if w.kind == trace.Atomic && w.outAtomics >= c.env.Cfg.MaxOutstandingAtomicsPerWarp {
		return false
	}
	return true
}

// issueOp performs the consistency actions and enqueues the op's
// transactions. Returns false if the coalescer lacks space (retry).
func (c *CU) issueOp(cycle int64, w *warpState, op *trace.Op) bool {
	b := c.env.Cfg.Behavior(op.Class)
	if op.Scope == trace.ScopeLocal {
		// HRF work-group scope: ordering is only required within this CU,
		// which sees its own accesses in order — no invalidation or
		// flush; overlap still follows the class.
		b.InvalidateOnLoad = false
		b.FlushOnStore = false
	}
	writes := op.AOp.Writes() || op.Kind == trace.Store
	reads := op.AOp.Reads() && op.Kind != trace.Store

	// Release: the store buffer must drain before the access performs.
	if b.FlushOnStore && writes && op.Kind.IsMem() {
		if !w.waitingFlush {
			w.waitingFlush = true
			w.flushDone = false
			c.changed = true
			c.st.ReleaseFlushes++
			if h := c.env.Probe; h != nil {
				h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
					Warp: w.id, Kind: probe.ReleaseFlush})
			}
			c.l1.Flush(cycle, func(int64) {
				w.flushDone = true
				c.wake()
			})
		}
		if !w.flushDone {
			return false
		}
		w.waitingFlush = false
		c.changed = true
	}

	// Estimate transaction count and check coalescer space.
	var txns int
	switch op.Kind {
	case trace.Load, trace.Store:
		txns = len(c.linesOf(op.Addrs))
	case trace.Atomic:
		txns = len(op.Addrs)
	}
	if c.depth()+txns > c.env.Cfg.CoalescerQueue {
		return false
	}

	// Acquire: self-invalidate before subsequent reads can hit stale data.
	if b.InvalidateOnLoad && reads && op.Kind == trace.Atomic {
		c.l1.AcquireInvalidate()
	}

	switch op.Kind {
	case trace.Load:
		lines := c.linesOf(op.Addrs)
		w.outLoads++
		g := w.allocGroup(len(lines), false)
		for _, line := range lines {
			t := c.newTxn()
			t.Kind = memsys.TxnLoad
			t.Addr = line * c.env.Cfg.LineSize
			t.Class = op.Class
			t.AOp = core.OpLoad
			t.Done = c
			t.Owner = w
			t.Group = g
			c.push(w, t)
		}
	case trace.Store:
		for _, line := range c.linesOf(op.Addrs) {
			// Stores complete into the store buffer; they do not hold the
			// warp. Flush semantics make them visible.
			t := c.newTxn()
			t.Kind = memsys.TxnStore
			t.Addr = line * c.env.Cfg.LineSize
			t.Class = op.Class
			t.AOp = core.OpStore
			t.Done = c
			c.push(w, t)
		}
	case trace.Atomic:
		w.outAtomics++
		g := w.allocGroup(len(op.Addrs), true)
		for i, a := range op.Addrs {
			operand := op.Operand
			if op.Operands != nil {
				operand = op.Operands[i]
			}
			t := c.newTxn()
			t.Kind = memsys.TxnAtomic
			t.Addr = a
			t.Class = op.Class
			t.LocalScope = op.Scope == trace.ScopeLocal
			t.AOp = op.AOp
			t.Operand = operand
			t.Done = c
			t.Owner = w
			t.Group = g
			c.push(w, t)
		}
	}

	if op.Kind.IsMem() && b.Overlap == core.OverlapNone {
		// SC access: block the warp until it completes.
		w.fence = true
		c.clearFence(w) // store-only SC ops hold no transactions
	}
	return true
}

func (c *CU) clearFence(w *warpState) {
	if w.fence && w.outLoads == 0 && w.outAtomics == 0 {
		w.fence = false
	}
}

// spanOpOf classifies a transaction for the latency-span layer.
func spanOpOf(t *memsys.Txn) probe.SpanOp {
	switch t.Kind {
	case memsys.TxnLoad:
		return probe.SpanLoad
	case memsys.TxnStore:
		return probe.SpanStore
	}
	switch t.Class {
	case core.Acquire:
		return probe.SpanAcquire
	case core.Release:
		return probe.SpanRelease
	}
	return probe.SpanAtomic
}

func (c *CU) push(w *warpState, t *memsys.Txn) {
	*c.txnSeq++
	t.ID = *c.txnSeq
	t.Warp = w.id
	if c.coalHead > 0 && len(c.coalescer) == cap(c.coalescer) {
		n := copy(c.coalescer, c.coalescer[c.coalHead:])
		for i := n; i < len(c.coalescer); i++ {
			c.coalescer[i] = nil
		}
		c.coalescer = c.coalescer[:n]
		c.coalHead = 0
	}
	c.coalescer = append(c.coalescer, t)
	if h := c.env.Probe; h != nil {
		h.Emit(probe.Event{Cycle: h.Now(), Comp: probe.CompCU, Node: c.node, Warp: w.id,
			Kind: probe.CoalescerPush, Txn: t.ID, Addr: t.Addr,
			Arg: int64(c.depth()), Aux: int64(spanOpOf(t))})
	}
}

// Tick advances the CU one cycle: retire finished warps, drain the
// coalescer into the L1, then issue at most one warp op (CPU nodes may
// issue several, reflecting the faster CPU clock).
//
// quiet marks a cycle the skip oracle (NextWork) proved idle but that is
// being processed anyway because fast-forwarding is disabled. Stall
// accounting and stall-interval tracking are suppressed on quiet cycles
// — exactly the accounting a skipped cycle gets — while all state
// transitions still run, so an oracle that wrongly skips a productive
// cycle shows up as diverging architectural counters in the equivalence
// tests rather than being masked.
func (c *CU) Tick(cycle int64, quiet bool) {
	c.changed = false
	stalls := c.st.WarpIssueStalls
	// Retirement: the op stream is exhausted, trailing compute has
	// elapsed, and no memory operations remain in flight.
	for _, w := range c.warps {
		if w.atEnd && !w.done && w.busyUntil <= cycle && w.outLoads == 0 && w.outAtomics == 0 {
			w.done = true
			c.retire()
			c.changed = true
		}
	}
	// Coalescer → L1 (one transaction per cycle port).
	if c.depth() > 0 {
		if t := c.coalescer[c.coalHead]; c.l1.TryIssue(cycle, t) {
			c.coalescer[c.coalHead] = nil
			c.coalHead++
			if c.coalHead == len(c.coalescer) {
				c.coalescer = c.coalescer[:0]
				c.coalHead = 0
			}
			c.changed = true
			if h := c.env.Probe; h != nil {
				h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
					Warp: t.Warp, Kind: probe.CoalescerDrain, Txn: t.ID, Addr: t.Addr})
			}
		}
	}

	for n := 0; n < c.issueWidth; n++ {
		if !c.issueOne(cycle, quiet) {
			break
		}
		c.changed = true
	}
	c.idleStalls = c.st.WarpIssueStalls - stalls
	if h := c.env.Probe; h != nil && !quiet {
		c.trackStalls(cycle, h)
	}
}

// issueOne finds one ready warp round-robin and issues its next op.
func (c *CU) issueOne(cycle int64, quiet bool) bool {
	nw := len(c.warps)
	i := c.rr
	for k := 0; k < nw; k++ {
		w := c.warps[i]
		if i++; i == nw {
			i = 0
		}
		if w.done || w.atEnd || w.atBarrier || w.fence || w.busyUntil > cycle {
			continue
		}
		if f := c.env.Fault; f != nil && f.Wedged(w.id, cycle) {
			if !quiet {
				c.st.WarpIssueStalls++
			}
			continue
		}
		if !c.canIssue(w) {
			if !quiet {
				c.st.WarpIssueStalls++
			}
			continue
		}
		switch w.kind {
		case trace.Compute:
			w.busyUntil = cycle + int64(w.ops.Ops[w.pc].Cycles)
			c.st.CoreOps++
		case trace.ScratchLoad, trace.ScratchStore:
			w.busyUntil = cycle + int64(w.ops.Ops[w.pc].Cycles)
			c.st.CoreOps++
			c.st.ScratchAccesses++
		case trace.Barrier:
			w.atBarrier = true
			c.barrierWaiters++
			if g := c.group; g != nil {
				g.waiters++
			}
			if h := c.env.Probe; h != nil {
				h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
					Warp: w.id, Kind: probe.BarrierArrive})
			}
			c.rr = i
			return true
		case trace.Join:
			// Pure dependency marker: free once issuable.
		default:
			if !c.issueOp(cycle, w, &w.ops.Ops[w.pc]) {
				if !quiet {
					c.st.WarpIssueStalls++
				}
				continue
			}
			c.st.CoreOps++
		}
		if h := c.env.Probe; h != nil {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node,
				Warp: w.id, Kind: probe.WarpIssue, Arg: int64(w.kind)})
		}
		w.advance()
		c.rr = i
		return true
	}
	return false
}

// NextWork returns the earliest cycle at which this CU can make progress
// on its own, or -1 if it is entirely waiting on external events
// (message deliveries and scheduled completions). The hint must be
// exact, not merely conservative in one direction: the driver fast
// forwards the clock straight to the minimum hint across all
// components, so a cycle where this CU would have acted but which the
// hint did not report would silently change timing. The equivalence
// tests (skip on vs off) pin this property.
func (c *CU) NextWork(cycle int64) int64 {
	if c.depth() > 0 {
		// A queued transaction retries L1 issue every cycle.
		return cycle + 1
	}
	return c.warpWake(cycle, true)
}

// warpWake returns the earliest cycle at which a warp can act on its
// own, or -1. With ready set, a warp whose consistency gates pass acts
// next cycle; a CU parked behind its coalescer head passes false,
// because there such a warp only waits for coalescer space, which the
// head's issue frees (see sleep).
func (c *CU) warpWake(cycle int64, ready bool) int64 {
	wake := int64(-1)
	min := func(t int64) {
		if t <= cycle {
			t = cycle + 1
		}
		if wake < 0 || t < wake {
			wake = t
		}
	}
	for _, w := range c.warps {
		switch {
		case w.done || w.atBarrier:
			// Retired, or parked until the driver-side barrier release (which
			// itself only happens at processed cycles).
		case w.atEnd:
			// Retiring: wakes when trailing compute elapses, but only once
			// outstanding memory has completed — completions are events.
			if w.outLoads == 0 && w.outAtomics == 0 {
				min(w.busyUntil)
			}
		case w.fence:
			// SC fence: unblocked by completions.
		case w.busyUntil > cycle:
			// Computing: the next op issues (or begins stalling) the moment
			// compute finishes, regardless of memory still in flight.
			min(w.busyUntil)
		default:
			// Ready, or waiting on a release flush: issue polls the warp
			// every cycle, and from a wedge's first cycle on each poll bumps
			// the fault tally. So the wedge start is work, and a wedged warp
			// stays hot, matching cycle-by-cycle execution exactly.
			if f := c.env.Fault; f != nil {
				if from, ok := f.WedgeStart(w.id); ok {
					min(from)
					if from <= cycle+1 {
						continue
					}
				}
			}
			if w.waitingFlush && !w.flushDone {
				// Release flush: unblocked by the flush callback.
				continue
			}
			// If the consistency gates pass, the warp issues (or retries a
			// full coalescer) next cycle. If they fail, every gate is a pure
			// function of outstanding-op counts, which only completions
			// change — so the warp is provably idle until the next event.
			if ready && c.canIssue(w) {
				min(cycle + 1)
			}
		}
	}
	return wake
}

// sleep puts the awake CU to sleep after a processed cycle, given its
// NextWork hint for that cycle, when its Tick changed nothing and the
// hint is not the next cycle, and reports whether it did. Until the
// hint, nothing the CU's Tick reads can change except through a
// completion (TxnDone), a release-flush callback or a barrier release,
// and each of those wakes it. Its issue stalls are therefore the same on
// every cycle in between, which lets the Group skip its Tick and
// NextWork and charge the stalls in one step (see Group). The hint
// already stops at the start of a fault wedge on a polled warp, the
// first cycle whose Tick bumps the wedge tally.
//
// The skip-off reference offers sleep only to a CU that is done (see
// Group.NextWork); every other CU stays awake there.
//
// A hint of the next cycle still allows one kind of sleep, parking: when
// the only work left is the coalescer head retrying an L1 that cannot
// take it (see parkable). Each retry then fails the same way, and every
// warp whose gates pass is waiting for coalescer space, until something
// changes the L1's state; a delivery to the L1 or an L1 tick does
// (Group.L1Touched), and either wakes the parked CU. Until then it
// charges its stalls like any sleeper, and the Group reports the next
// cycle as work on its behalf, so the set of processed cycles stays the
// same.
func (c *CU) sleep(cycle, wake int64) bool {
	if c.changed {
		return false
	}
	if wake == cycle+1 {
		if c.depth() == 0 || !c.parkable() {
			return false
		}
		if wake = c.warpWake(cycle, false); wake == cycle+1 {
			return false
		}
		c.parked = true
	}
	c.sleepUntil = wake
	if wake < 0 {
		c.sleepUntil = math.MaxInt64
	}
	return true
}

// parkable reports whether a failed retry of the coalescer head repeats
// exactly until the L1 changes: a load or atomic held by full MSHRs or a
// full atomic tracker. A retried DeNovo atomic re-touches its line's LRU
// state if the line is present, but that only keeps it the most recent
// line, as the first failed try left it: nothing else in the L1 is
// touched while the CU is parked. Not a store, held only while the store
// buffer drains, which ticks the L1 every cycle anyway; and nothing
// under fault injection, whose capacity windows move with the cycle.
func (c *CU) parkable() bool {
	return c.env.Fault == nil && c.coalescer[c.coalHead].Kind != memsys.TxnStore
}

// asleep reports whether the CU is sleeping.
func (c *CU) asleep() bool { return c.sleepUntil != 0 }

// settle charges the issue stalls of the processed cycles slept through
// since the last charge.
func (c *CU) settle() {
	n := c.group.ticks
	c.st.WarpIssueStalls += c.idleStalls * (n - c.sleptAt)
	c.sleptAt = n
}

// wake ends any sleep: something changed the CU's state (or its hint
// came due), so it ticks on this cycle again.
func (c *CU) wake() {
	c.changed = true
	if !c.asleep() {
		return
	}
	c.settle()
	until := c.sleepUntil
	c.sleepUntil = 0
	c.group.woke(c, until)
}

// CoalescerDepth returns the number of transactions queued for L1 issue
// (liveness diagnostics).
func (c *CU) CoalescerDepth() int { return c.depth() }

// WarpDiag is one warp's state snapshot for liveness diagnostics.
type WarpDiag struct {
	Warp, Node int
	// PC and Ops locate the warp in its op stream.
	PC, Ops int
	// State names what the warp is doing or waiting on.
	State                string
	OutLoads, OutAtomics int
}

// Stuck reports whether the warp still has work it cannot finish on its
// own this instant (everything but retired).
func (d WarpDiag) Stuck() bool { return d.State != "retired" }

// Diag snapshots every warp's state at the given cycle.
func (c *CU) Diag(cycle int64) []WarpDiag {
	out := make([]WarpDiag, 0, len(c.warps))
	for _, w := range c.warps {
		d := WarpDiag{Warp: w.id, Node: c.node, PC: w.pc, Ops: len(w.ops.Ops),
			OutLoads: w.outLoads, OutAtomics: w.outAtomics}
		switch {
		case w.done:
			d.State = "retired"
		case w.atBarrier:
			d.State = "at-barrier"
		case c.env.Fault != nil && c.env.Fault.WedgeActive(w.id, cycle):
			d.State = "wedged (injected fault)"
		case w.fence:
			d.State = "sc-fence drain"
		case w.waitingFlush && !w.flushDone:
			d.State = "release-flush wait"
		case w.outLoads > 0 || w.outAtomics > 0:
			d.State = "memory wait"
		case w.busyUntil > cycle:
			d.State = "compute"
		case w.atEnd:
			d.State = "retiring"
		default:
			d.State = "ready"
		}
		out = append(out, d)
	}
	return out
}

// RetiredWarps counts warps that have finished their op streams.
func (c *CU) RetiredWarps() int { return c.retired }

// stallReasonOf classifies why a warp cannot issue this cycle (probe
// attribution; mirrors the gates in canIssue/issueOp).
func (c *CU) stallReasonOf(w *warpState, cycle int64) probe.StallReason {
	switch {
	case w.done:
		return probe.StallNone
	case w.atBarrier:
		return probe.StallBarrier
	case w.atEnd:
		if w.outLoads > 0 || w.outAtomics > 0 {
			return probe.StallMemory
		}
		return probe.StallNone
	case w.busyUntil > cycle:
		return probe.StallNone // compute-occupied, not a stall
	case w.fence:
		return probe.StallConsistency // SC access draining
	case w.waitingFlush && !w.flushDone:
		return probe.StallConsistency // release flush in progress
	}
	if f := c.env.Fault; f != nil && f.WedgeActive(w.id, cycle) {
		return probe.StallFault
	}
	op := &w.ops.Ops[w.pc]
	if !op.Kind.IsMem() && op.Kind != trace.Barrier && op.Kind != trace.Join {
		return probe.StallNone
	}
	if op.Kind == trace.Barrier || op.Kind == trace.Join {
		if w.outLoads > 0 || w.outAtomics > 0 {
			return probe.StallMemory
		}
		return probe.StallNone
	}
	b := c.env.Cfg.Behavior(op.Class)
	if b.Overlap == core.OverlapNone && (w.outLoads > 0 || w.outAtomics > 0) {
		return probe.StallConsistency
	}
	if b.Overlap == core.OverlapAtomicSerial && op.Kind == trace.Atomic && w.outAtomics > 0 {
		return probe.StallConsistency
	}
	if w.outLoads+w.outAtomics >= c.env.Cfg.MaxOutstandingPerWarp {
		return probe.StallMemory
	}
	if op.Kind == trace.Atomic && w.outAtomics >= c.env.Cfg.MaxOutstandingAtomicsPerWarp {
		return probe.StallMemory
	}
	var txns int
	switch op.Kind {
	case trace.Load, trace.Store:
		txns = len(c.linesOf(op.Addrs))
	case trace.Atomic:
		txns = len(op.Addrs)
	}
	if c.depth()+txns > c.env.Cfg.CoalescerQueue {
		if c.l1.SBFull() {
			return probe.StallStoreBufferFull
		}
		return probe.StallIssue
	}
	return probe.StallNone
}

// trackStalls maintains each warp's open stall interval, emitting
// begin/end events on transitions. It runs once per processed cycle when
// a hub is attached, so intervals span fast-forwarded gaps and each
// warp's stall intervals are disjoint (their sum is bounded by the run's
// total cycles).
func (c *CU) trackStalls(cycle int64, h *probe.Hub) {
	for _, w := range c.warps {
		r := c.stallReasonOf(w, cycle)
		if r == w.curStall {
			continue
		}
		if w.curStall != probe.StallNone {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node, Warp: w.id,
				Kind: probe.StallEnd, Reason: w.curStall, Arg: cycle - w.stallSince})
		}
		if r != probe.StallNone {
			w.stallSince = cycle
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node, Warp: w.id,
				Kind: probe.StallBegin, Reason: r})
		}
		w.curStall = r
	}
}

// CloseStalls ends any open stall intervals (called by the system driver
// at the end of the run so no stalled cycles are lost).
func (c *CU) CloseStalls(cycle int64, h *probe.Hub) {
	for _, w := range c.warps {
		if w.curStall != probe.StallNone {
			h.Emit(probe.Event{Cycle: cycle, Comp: probe.CompCU, Node: c.node, Warp: w.id,
				Kind: probe.StallEnd, Reason: w.curStall, Arg: cycle - w.stallSince})
			w.curStall = probe.StallNone
		}
	}
}
