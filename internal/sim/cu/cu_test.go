package cu

import (
	"container/heap"
	"testing"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/sim/noc"
	"rats/internal/stats"
	"rats/internal/trace"
)

// harness wires one CU to a real L1/L2/mesh so scheduler behaviour can be
// observed cycle by cycle.
type harness struct {
	cfg   memsys.Config
	env   *memsys.Env
	cu    *CU
	l1s   []*memsys.L1
	l2s   []*memsys.L2Bank
	mesh  *noc.Mesh
	st    stats.Stats
	cycle int64
	evs   evq
	seq   int64
	txn   int64
	// touched, when set, hears of every L1 that takes a delivery or has
	// store-buffer work to tick, as System.Run's Group does.
	touched func(node int)
}

type ev struct {
	cycle, seq int64
	d          memsys.Deferred
}
type evq []ev

func (q evq) Len() int { return len(q) }
func (q evq) Less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}
func (q evq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *evq) Push(x any)   { *q = append(*q, x.(ev)) }
func (q *evq) Pop() any     { old := *q; n := len(old); v := old[n-1]; *q = old[:n-1]; return v }

func newHarness(model core.Model) *harness {
	return newHarnessWith(memsys.Default(memsys.ProtoGPU, model))
}

func newHarnessWith(cfg memsys.Config) *harness {
	h := &harness{cfg: cfg}
	h.mesh = noc.NewMesh(h.cfg.MeshWidth, h.cfg.MeshHeight, h.cfg.HopLat, &h.st)
	h.env = &memsys.Env{
		Cfg: &h.cfg, Mesh: h.mesh, Stats: &h.st,
		At: func(c int64, d memsys.Deferred) {
			if c <= h.cycle {
				c = h.cycle + 1
			}
			h.seq++
			heap.Push(&h.evs, ev{cycle: c, seq: h.seq, d: d})
		},
	}
	for n := 0; n < h.cfg.Nodes(); n++ {
		l1 := memsys.NewL1(h.env, n)
		l2 := memsys.NewL2Bank(h.env, n)
		h.l1s = append(h.l1s, l1)
		h.l2s = append(h.l2s, l2)
		node := n
		h.mesh.SetReceiver(n, func(m noc.Message) {
			if memsys.IsL2Request(m.Payload) {
				h.l2s[node].Handle(h.cycle, m.Payload)
				return
			}
			h.l1s[node].Handle(h.cycle, m.Payload)
			if h.touched != nil {
				h.touched(node)
			}
		})
	}
	h.cu = New(h.env, 0, h.l1s[0], &h.txn)
	return h
}

func (h *harness) step() {
	h.advance()
	h.cu.Tick(h.cycle, false)
}

// advance starts the next cycle and runs everything System.Run runs
// before the CUs tick: events, deliveries and L1 store-buffer work.
func (h *harness) advance() {
	h.cycle++
	for h.evs.Len() > 0 && h.evs[0].cycle <= h.cycle {
		e := heap.Pop(&h.evs).(ev)
		e.d.Fire(h.cycle)
	}
	h.mesh.Tick(h.cycle)
	for n, l1 := range h.l1s {
		idle := l1.Idle()
		l1.Tick(h.cycle)
		if !idle && h.touched != nil {
			h.touched(n)
		}
	}
}

func (h *harness) runUntilDone(t *testing.T, bound int) {
	t.Helper()
	for i := 0; i < bound; i++ {
		h.step()
		if h.cu.Done() {
			return
		}
	}
	t.Fatalf("CU not done after %d cycles", bound)
}

func TestComputeOccupiesWarp(t *testing.T) {
	h := newHarness(core.DRF0)
	w := &trace.Warp{CU: 0}
	w.Compute(10).Compute(10)
	h.cu.AddWarp(w)
	h.runUntilDone(t, 100)
	if h.cycle < 20 {
		t.Errorf("two 10-cycle computes finished in %d cycles", h.cycle)
	}
	if h.st.CoreOps != 2 {
		t.Errorf("core ops = %d", h.st.CoreOps)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	h := newHarness(core.DRFrlx)
	for i := 0; i < 4; i++ {
		w := &trace.Warp{CU: 0}
		for j := 0; j < 5; j++ {
			w.Compute(0)
		}
		h.cu.AddWarp(w)
	}
	// 4 warps x 5 zero-latency computes at 1 issue/cycle = 20 cycles.
	h.runUntilDone(t, 60)
	if h.cycle > 25 {
		t.Errorf("round robin starved warps: %d cycles for 20 issues", h.cycle)
	}
}

func TestSCAtomicFencesWarp(t *testing.T) {
	// Under DRF0, a warp's atomic blocks its subsequent compute; issue
	// count over the first few cycles stays at 1.
	h := newHarness(core.DRF0)
	w := &trace.Warp{CU: 0}
	w.Atomic(core.Commutative, core.OpInc, 0, 0x4000)
	w.Compute(1)
	h.cu.AddWarp(w)
	for i := 0; i < 5; i++ {
		h.step()
	}
	if h.st.CoreOps != 1 {
		t.Errorf("fence leaked: %d ops issued while atomic outstanding", h.st.CoreOps)
	}
	h.runUntilDone(t, 2000)
}

func TestRelaxedAtomicsPipelined(t *testing.T) {
	h := newHarness(core.DRFrlx)
	w := &trace.Warp{CU: 0}
	w.Atomic(core.Commutative, core.OpInc, 0, 0x4000)
	w.Atomic(core.Commutative, core.OpInc, 0, 0x4040)
	h.cu.AddWarp(w)
	for i := 0; i < 4; i++ {
		h.step()
	}
	// Both relaxed atomics issue back to back (atomic MLP = 2).
	if h.st.CoreOps != 2 {
		t.Errorf("relaxed atomics did not pipeline: %d issued", h.st.CoreOps)
	}
	h.runUntilDone(t, 2000)
	if h.env.Read(0x4000) != 1 || h.env.Read(0x4040) != 1 {
		t.Error("atomics lost")
	}
}

func TestBarrierParksWarp(t *testing.T) {
	h := newHarness(core.DRFrlx)
	w := &trace.Warp{CU: 0}
	w.Barrier()
	w.Compute(1)
	h.cu.AddWarp(w)
	for i := 0; i < 10; i++ {
		h.step()
	}
	if h.cu.BarrierWaiters() != 1 {
		t.Fatalf("barrier waiters = %d", h.cu.BarrierWaiters())
	}
	if h.cu.Done() {
		t.Fatal("warp done despite parked at barrier")
	}
	h.cu.ReleaseBarrier()
	h.runUntilDone(t, 50)
	if h.cu.RetiredWarps() != 1 {
		t.Error("warp did not retire after barrier release")
	}
}

func TestNextWork(t *testing.T) {
	h := newHarness(core.DRFrlx)
	w := &trace.Warp{CU: 0}
	w.Compute(50)
	h.cu.AddWarp(w)
	h.step() // issues the compute; busy until cycle+50
	wake := h.cu.NextWork(h.cycle)
	if wake <= h.cycle || wake > h.cycle+51 {
		t.Errorf("NextWork = %d at cycle %d", wake, h.cycle)
	}
	// A memory-bound warp reports no self-wake: its Join is gated on the
	// outstanding load, and only the load's completion (an event) can
	// change that.
	h2 := newHarness(core.DRF0)
	w2 := &trace.Warp{CU: 0}
	w2.Load(core.Data, 0x1000)
	w2.Join()
	h2.cu.AddWarp(w2)
	h2.step()
	h2.step()
	if wk := h2.cu.NextWork(h2.cycle); wk >= 0 && !h2.cu.Done() {
		t.Errorf("memory-bound warp should not self-wake (wake=%d)", wk)
	}
	h2.runUntilDone(t, 2000)
}

func TestEmptyWarpRetiresImmediately(t *testing.T) {
	h := newHarness(core.DRF0)
	h.cu.AddWarp(&trace.Warp{CU: 0})
	if !h.cu.Done() {
		t.Fatal("empty warp should be done at birth")
	}
}
