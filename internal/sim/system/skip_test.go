package system

import (
	"errors"
	"testing"

	"rats/internal/core"
	"rats/internal/fault"
	"rats/internal/sim/memsys"
	"rats/internal/stats"
	"rats/internal/trace"
	"rats/internal/workloads"
)

// runSkip builds a machine, toggles cycle skipping, and runs the trace.
func runSkip(t *testing.T, cfg memsys.Config, tr *trace.Trace, skip bool) *Result {
	t.Helper()
	s := New(cfg)
	s.SetCycleSkipping(skip)
	if err := s.Load(tr); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSkipEquivalence pins the wake-hint contract: for every workload ×
// config in the tier-1 suite, a run with event-driven fast-forwarding
// produces bit-identical Stats (including the final cycle count) to a
// cycle-by-cycle run. The skip-off reference processes every cycle in
// full — any wake hint that wrongly skips a productive cycle diverges
// an architectural counter here.
func TestSkipEquivalence(t *testing.T) {
	for _, e := range workloads.All() {
		for cfgName, cfg := range allConfigs() {
			on := runSkip(t, cfg, e.Build(workloads.Test), true)
			off := runSkip(t, cfg, e.Build(workloads.Test), false)
			if on.Stats != off.Stats {
				t.Errorf("%s/%s: stats diverge with cycle skipping\non:  %+v\noff: %+v",
					e.Name, cfgName, on.Stats, off.Stats)
			}
			if on.Stats.Cycles != off.Stats.Cycles {
				t.Errorf("%s/%s: final cycle %d (skip) vs %d (reference)",
					e.Name, cfgName, on.Stats.Cycles, off.Stats.Cycles)
			}
		}
	}
}

// TestSkipEquivalenceUnderFaults repeats the equivalence check with the
// full metamorphic fault spec active: same seed must mean the same
// perturbations, timings, and tallies whether or not idle cycles are
// fast-forwarded (the injector's PRNG is consumed only at processed
// cycles, and its pressure windows are pure functions of the cycle).
func TestSkipEquivalenceUnderFaults(t *testing.T) {
	configs := map[string]memsys.Config{
		"GPU/DRF0":    memsys.Default(memsys.ProtoGPU, core.DRF0),
		"DeNovo/DRF1": memsys.Default(memsys.ProtoDeNovo, core.DRF1),
	}
	for _, e := range workloads.Micro() {
		for cfgName, base := range configs {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := base
				cfg.Faults = mustSpec(t, metamorphicSpec)
				cfg.FaultSeed = seed

				onSys := New(cfg)
				if err := onSys.Load(e.Build(workloads.Test)); err != nil {
					t.Fatal(err)
				}
				on, err := onSys.Run()
				if err != nil {
					t.Fatalf("%s/%s seed %d on: %v", e.Name, cfgName, seed, err)
				}

				offSys := New(cfg)
				offSys.SetCycleSkipping(false)
				if err := offSys.Load(e.Build(workloads.Test)); err != nil {
					t.Fatal(err)
				}
				off, err := offSys.Run()
				if err != nil {
					t.Fatalf("%s/%s seed %d off: %v", e.Name, cfgName, seed, err)
				}

				if on.Stats != off.Stats {
					t.Errorf("%s/%s seed %d: faulted stats diverge with cycle skipping\non:  %+v\noff: %+v",
						e.Name, cfgName, seed, on.Stats, off.Stats)
				}
				onCounts, _ := onSys.FaultCounts()
				offCounts, _ := offSys.FaultCounts()
				if onCounts != offCounts {
					t.Errorf("%s/%s seed %d: fault tallies diverge\non:  %+v\noff: %+v",
						e.Name, cfgName, seed, onCounts, offCounts)
				}
			}
		}
	}
}

// TestSkipEquivalenceWedgedWatchdog asserts failure timelines match too:
// a wedged run trips the liveness watchdog at the identical cycle in
// both modes (wedged warps keep their CU's wake hint hot, so the
// watchdog window is walked cycle-exactly even when skipping).
func TestSkipEquivalenceWedgedWatchdog(t *testing.T) {
	run := func(skip bool) *DiagnosticError {
		cfg := memsys.Default(memsys.ProtoGPU, core.DRF0)
		cfg.Faults = mustSpec(t, "wedge:warp=1,from=0")
		cfg.FaultSeed = 1
		cfg.WatchdogWindow = 5000
		s := New(cfg)
		s.SetCycleSkipping(skip)
		if err := s.Load(barrierTrace()); err != nil {
			t.Fatal(err)
		}
		_, err := s.Run()
		var diag *DiagnosticError
		if !errors.As(err, &diag) {
			t.Fatalf("wedged run (skip=%v): expected *DiagnosticError, got %v", skip, err)
		}
		return diag
	}
	on, off := run(true), run(false)
	if on.Cycle != off.Cycle {
		t.Errorf("watchdog fired at cycle %d (skip) vs %d (reference)", on.Cycle, off.Cycle)
	}
	if on.RetiredOps != off.RetiredOps {
		t.Errorf("retired ops at failure: %d (skip) vs %d (reference)", on.RetiredOps, off.RetiredOps)
	}
}

// sleepTrace parks warps behind every issue gate a sleeping CU can wait
// on: an SC fence, a release flush, the per-warp MLP cap, a Join and the
// device-wide barrier.
func sleepTrace() *trace.Trace {
	tr := trace.New("sleep-gates")
	a := tr.AddWarp(0)
	a.Atomic(core.Paired, core.OpInc, 1, 0x4000).Compute(1)
	a.Store(core.Data, 0x8000).Store(core.Data, 0x8040).AtomicStore(core.Paired, 0x9000, 1)
	a.Barrier().Load(core.Data, 0x1000).Join()
	b := tr.AddWarp(1)
	for i := uint64(0); i < 8; i++ {
		b.Load(core.Data, 0x10000+i*0x1000)
	}
	b.Join().Barrier()
	c := tr.AddWarp(2)
	c.Load(core.Data, 0x30000).Join().Barrier().Compute(5)
	return tr
}

// TestSkipEquivalenceSleepingCUs runs sleepTrace with idle CUs sleeping
// (skipping on) and with every CU ticked every cycle (skipping off), under
// every protocol and model, with two MSHRs per L1 so that warp 1's loads
// park its CU behind the coalescer head, and once more with a wedge that
// starts while warp 2's CU sleeps on its Join. Stats — issue stalls
// included — fault tallies and the watchdog's firing cycle must match.
func TestSkipEquivalenceSleepingCUs(t *testing.T) {
	run := func(cfg memsys.Config, skip bool) (stats.Stats, fault.Counts, error) {
		s := New(cfg)
		s.SetCycleSkipping(skip)
		if err := s.Load(sleepTrace()); err != nil {
			t.Fatal(err)
		}
		_, err := s.Run()
		counts, _ := s.FaultCounts()
		return s.stats, counts, err
	}
	check := func(name string, cfg memsys.Config) {
		on, onCounts, onErr := run(cfg, true)
		off, offCounts, offErr := run(cfg, false)
		if on != off {
			t.Errorf("%s: stats diverge with sleeping CUs\non:  %+v\noff: %+v", name, on, off)
		}
		if onCounts != offCounts {
			t.Errorf("%s: fault tallies diverge\non:  %+v\noff: %+v", name, onCounts, offCounts)
		}
		if (onErr == nil) != (offErr == nil) || onErr != nil && onErr.Error() != offErr.Error() {
			t.Errorf("%s: outcomes diverge\non:  %v\noff: %v", name, onErr, offErr)
		}
	}
	for cfgName, cfg := range allConfigs() {
		check(cfgName, cfg)
		cfg.L1MSHRs = 2
		check(cfgName+"/2-MSHRs", cfg)
	}
	cfg := memsys.Default(memsys.ProtoGPU, core.DRF0)
	cfg.Faults = mustSpec(t, "wedge:warp=2,from=30")
	cfg.FaultSeed = 1
	cfg.WatchdogWindow = 2000
	check("GD0/wedge", cfg)
	if _, counts, err := run(cfg, true); err == nil || counts.WedgeHolds == 0 {
		t.Errorf("wedged run: err %v, wedge holds %d; want a watchdog error after held slots", err, counts.WedgeHolds)
	}
}
