package cu

import (
	"testing"

	"rats/internal/core"
	"rats/internal/fault"
	"rats/internal/sim/memsys"
	"rats/internal/stats"
	"rats/internal/trace"
)

// sleepScenario parks warp 0 behind one issue gate while a companion
// warp stalls on a Join, so the sleeping CU has issue stalls to charge.
type sleepScenario struct {
	name  string
	model core.Model
	// faults is an optional fault spec for the run.
	faults string
	// cfg, when set, adjusts the GPU-coherence configuration.
	cfg  func(*memsys.Config)
	warp func(w *trace.Warp)
	// companion builds warp 1; nil means a load and a Join.
	companion func(w *trace.Warp)
	// gate reports whether the CU (usually through warp 0) is held by the
	// scenario's gate.
	gate func(c *CU, w *warpState) bool
	// wakeAt, when nonzero, is the cycle the sleep must end at (a wedge
	// start); otherwise the sleep must end early, through a wake.
	wakeAt int64
	// cycles bounds the run; runs without a wedge must finish within it.
	cycles int64
}

type sleepRun struct {
	st        stats.Stats
	counts    fault.Counts
	doneAt    int64
	asleep    int   // cycles the CU spent asleep
	gated     int   // of those, cycles the gate held
	gatedWake int64 // a cycle that woke the CU from a gated sleep, or 0
}

// runSleep drives a one-CU harness cycle by cycle through a Group. With
// sleep set, the CU is offered sleep after every cycle, as System.Run
// does when skipping; without it, the CU stays awake (the skip-off
// reference). Both runs process every cycle, so sleeping is compared
// against full ticking on each of them. The device-wide barrier releases
// as the system loop releases it.
func runSleep(t *testing.T, sc sleepScenario, sleep bool) sleepRun {
	t.Helper()
	cfg := memsys.Default(memsys.ProtoGPU, sc.model)
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	h := newHarnessWith(cfg)
	var inj *fault.Injector
	if sc.faults != "" {
		spec, err := fault.Parse(sc.faults)
		if err != nil {
			t.Fatal(err)
		}
		inj = fault.NewInjector(spec, 1)
		h.env.Fault = inj
	}
	g := NewGroup([]*CU{h.cu})
	h.touched = func(node int) {
		if node == 0 {
			g.L1Touched(0)
		}
	}
	w := &trace.Warp{CU: 0}
	sc.warp(w)
	h.cu.AddWarp(w)
	companion := &trace.Warp{CU: 0}
	if sc.companion != nil {
		sc.companion(companion)
	} else {
		companion.Load(core.Data, 0x20000).Join().Compute(1)
	}
	h.cu.AddWarp(companion)
	var r sleepRun
	wasGated := false
	for h.cycle < sc.cycles {
		h.advance()
		if n := h.cu.BarrierWaiters(); n > 0 && n == len(h.cu.warps)-h.cu.retired &&
			h.l1s[0].SBDrained() && !h.mesh.Pending() {
			h.l1s[0].AcquireInvalidate()
			h.cu.ReleaseBarrier()
		}
		asleep := h.cycle < h.cu.sleepUntil
		if asleep {
			r.asleep++
			wasGated = sc.gate(h.cu, h.cu.warps[0])
			if wasGated {
				r.gated++
			}
		} else if wasGated {
			if r.gatedWake == 0 {
				r.gatedWake = h.cycle
			}
			wasGated = false
		}
		g.Tick(h.cycle, false)
		g.NextWork(h.cycle, sleep)
		if r.doneAt == 0 && h.cu.Done() {
			r.doneAt = h.cycle
			if sc.wakeAt == 0 {
				break
			}
		}
	}
	g.Settle()
	r.st = h.st
	if inj != nil {
		r.counts = inj.Counts()
	}
	return r
}

// TestSleepWakePaths forces a CU to sleep behind each issue gate and
// wake through each path — a completion after an SC fence or at the
// per-warp MLP cap, the release-flush callback, the barrier release, a
// fault wedge starting mid-sleep, and a delivery to its L1 for a CU
// parked behind a coalescer head the L1 cannot take — and checks every
// counter, including the lazily charged issue stalls and the wedge
// tally, against a CU that never sleeps.
func TestSleepWakePaths(t *testing.T) {
	fenced := func(_ *CU, w *warpState) bool { return w.fence }
	parked := func(c *CU, _ *warpState) bool { return c.parked }
	twoMSHRs := func(cfg *memsys.Config) { cfg.L1MSHRs = 2 }
	scenarios := []sleepScenario{
		{
			name: "sc-fence", model: core.DRF0, cycles: 5000, gate: fenced,
			warp: func(w *trace.Warp) {
				w.Atomic(core.Paired, core.OpInc, 1, 0x4000).Compute(1).
					Atomic(core.Paired, core.OpInc, 1, 0x4040).Compute(1)
			},
		},
		{
			name: "release-flush", model: core.DRF0, cycles: 5000,
			gate: func(_ *CU, w *warpState) bool { return w.waitingFlush && !w.flushDone },
			warp: func(w *trace.Warp) {
				w.Store(core.Data, 0x8000).Store(core.Data, 0x8040).Store(core.Data, 0x8080).
					AtomicStore(core.Paired, 0x9000, 1).Compute(1)
			},
		},
		{
			name: "mlp-cap", model: core.DRFrlx, cycles: 5000,
			gate: func(c *CU, w *warpState) bool {
				return w.kind == trace.Load && w.outLoads+w.outAtomics >= c.env.Cfg.MaxOutstandingPerWarp
			},
			warp: func(w *trace.Warp) {
				for i := uint64(0); i < 8; i++ {
					w.Load(core.Data, 0x10000+i*0x1000)
				}
				w.Join()
			},
		},
		{
			// Both warps park at the barrier while the companion's stores
			// drain, so only the release can wake the CU.
			name: "barrier", model: core.DRF0, cycles: 5000,
			gate: func(c *CU, _ *warpState) bool {
				return c.barrierWaiters == len(c.warps)-c.retired
			},
			warp: func(w *trace.Warp) { w.Barrier().Compute(1) },
			companion: func(w *trace.Warp) {
				w.Load(core.Data, 0x20000).Join().
					Store(core.Data, 0x8000).Store(core.Data, 0x8040).Store(core.Data, 0x8080).
					Barrier().Compute(1)
			},
		},
		{
			// Eight misses against two MSHRs: the coalescer head waits for
			// a fill (a delivery) with nothing else to do.
			name: "mshr-full", model: core.DRFrlx, cycles: 5000, cfg: twoMSHRs, gate: parked,
			warp: func(w *trace.Warp) {
				for i := uint64(0); i < 8; i++ {
					w.Load(core.Data, 0x40000+i*0x1000)
				}
				w.Join()
			},
		},
		{
			// An 8-lane atomic against a two-entry atomic tracker: the head
			// waits for an atomic response.
			name: "atomic-tracker", model: core.DRFrlx, cycles: 5000, cfg: twoMSHRs, gate: parked,
			warp: func(w *trace.Warp) {
				w.Atomic(core.Commutative, core.OpAdd, 1, 0x50000, 0x50040, 0x50080, 0x500c0,
					0x50100, 0x50140, 0x50180, 0x501c0).Join()
			},
		},
		{
			// The same atomic under DeNovo: each lane's line needs an
			// ownership request, so the head waits for an MSHR.
			name: "denovo-atomic-mshr", model: core.DRFrlx, cycles: 5000, gate: parked,
			cfg: func(cfg *memsys.Config) {
				cfg.Protocol = memsys.ProtoDeNovo
				cfg.L1MSHRs = 2
			},
			warp: func(w *trace.Warp) {
				w.Atomic(core.Commutative, core.OpAdd, 1, 0x50000, 0x50040, 0x50080, 0x500c0,
					0x50100, 0x50140, 0x50180, 0x501c0).Join()
			},
		},
		{
			name: "wedge-mid-sleep", model: core.DRF0, faults: "wedge:warp=0,from=20",
			cycles: 400, wakeAt: 20,
			gate: func(_ *CU, w *warpState) bool { return w.kind == trace.Join && w.outLoads > 0 },
			warp: func(w *trace.Warp) { w.Load(core.Data, 0x30000).Join().Compute(1) },
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			awake := runSleep(t, sc, false)
			slept := runSleep(t, sc, true)
			if awake.asleep != 0 {
				t.Fatalf("reference CU slept %d cycles", awake.asleep)
			}
			if slept.gated == 0 {
				t.Fatalf("CU never slept behind the gate (asleep %d cycles)", slept.asleep)
			}
			switch {
			case slept.gatedWake == 0:
				t.Errorf("CU never woke from a gated sleep")
			case sc.wakeAt != 0 && slept.gatedWake != sc.wakeAt:
				t.Errorf("gated sleep ended at cycle %d, want the wedge start %d", slept.gatedWake, sc.wakeAt)
			}
			if slept.st != awake.st {
				t.Errorf("stats diverge when sleeping\nslept: %+v\nawake: %+v", slept.st, awake.st)
			}
			if slept.st.WarpIssueStalls == 0 {
				t.Error("no issue stalls charged; the scenario does not exercise lazy charging")
			}
			if slept.counts != awake.counts {
				t.Errorf("fault tallies diverge\nslept: %+v\nawake: %+v", slept.counts, awake.counts)
			}
			if sc.wakeAt != 0 && slept.counts.WedgeHolds == 0 {
				t.Error("wedge never held an issue slot")
			}
			if slept.doneAt != awake.doneAt {
				t.Errorf("done at cycle %d slept vs %d awake", slept.doneAt, awake.doneAt)
			}
			if sc.wakeAt == 0 && slept.doneAt == 0 {
				t.Errorf("not done after %d cycles", sc.cycles)
			}
		})
	}
}
