package system

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/trace"
)

// randomCommutativeTrace builds a random workload whose functional result
// is order-independent (commutative adds only), so every protocol and
// model must produce identical final values.
func randomCommutativeTrace(seed int64) (*trace.Trace, map[uint64]int64) {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(fmt.Sprintf("random-%d", seed))
	expected := map[uint64]int64{}
	nwarps := 2 + rng.Intn(6)
	naddrs := 1 + rng.Intn(5)
	addr := func(i int) uint64 { return 0x4000 + uint64(i)*68 } // cross-line spread
	classes := []core.Class{core.Paired, core.Unpaired, core.Commutative, core.Quantum}
	for w := 0; w < nwarps; w++ {
		warp := tr.AddWarp(rng.Intn(8))
		nops := 1 + rng.Intn(12)
		for i := 0; i < nops; i++ {
			switch rng.Intn(4) {
			case 0:
				warp.Load(core.Data, 0x100000+uint64(rng.Intn(64))*64)
			case 1:
				warp.Compute(rng.Intn(8))
			default:
				a := addr(rng.Intn(naddrs))
				v := int64(1 + rng.Intn(9))
				c := classes[rng.Intn(len(classes))]
				warp.Atomic(c, core.OpAdd, v, a)
				expected[a] += v
			}
		}
	}
	return tr, expected
}

// TestCrossConfigFunctionalEquivalence: for random commutative workloads,
// all six configurations compute identical final memory values — protocol
// and model change timing, never results.
func TestCrossConfigFunctionalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		var finals []map[uint64]int64
		// One trace serves every configuration, as in a sweep.
		tr, expected := randomCommutativeTrace(seed)
		for _, proto := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
			for _, m := range core.Models() {
				res, err := RunTrace(memsys.Default(proto, m), tr)
				if err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				got := map[uint64]int64{}
				for a := range expected {
					got[a] = res.Read(a)
				}
				finals = append(finals, got)
			}
		}
		for a, want := range expected {
			for i, got := range finals {
				if got[a] != want {
					t.Logf("seed %d config %d addr %#x: got %d want %d", seed, i, a, got[a], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// contentionFreeTrace gives every warp a private address set, so
// relaxation cannot create cross-warp contention.
func contentionFreeTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(fmt.Sprintf("cf-%d", seed))
	nwarps := 2 + rng.Intn(5)
	for w := 0; w < nwarps; w++ {
		warp := tr.AddWarp(w % 8)
		base := 0x4000 + uint64(w)*0x10000
		nops := 2 + rng.Intn(10)
		for i := 0; i < nops; i++ {
			switch rng.Intn(3) {
			case 0:
				warp.Compute(rng.Intn(6))
			default:
				warp.Atomic(core.Commutative, core.OpAdd, 1, base+uint64(rng.Intn(4))*64)
			}
		}
	}
	return tr
}

// TestWeakerModelNeverSlowerProperty: on contention-free workloads
// (per-warp private addresses), DRFrlx is never meaningfully slower than
// DRF0 under the same protocol. (Under contention the paper itself
// observes DRFrlx losses — PR-3 — so the property holds only
// contention-free.)
func TestWeakerModelNeverSlowerProperty(t *testing.T) {
	f := func(seed int64) bool {
		for _, proto := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
			tr0 := contentionFreeTrace(seed)
			r0, err := RunTrace(memsys.Default(proto, core.DRF0), tr0)
			if err != nil {
				return false
			}
			trR := contentionFreeTrace(seed)
			rR, err := RunTrace(memsys.Default(proto, core.DRFrlx), trR)
			if err != nil {
				return false
			}
			// Small tolerance for scheduling jitter.
			if float64(rR.Stats.Cycles) > 1.05*float64(r0.Stats.Cycles)+20 {
				t.Logf("seed %d %v: DRFrlx %d vs DRF0 %d", seed, proto, rR.Stats.Cycles, r0.Stats.Cycles)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsConservation: basic accounting invariants hold on a random
// workload — hits+misses == accesses (where tracked), atomics placed at
// exactly one level, L2 hits+misses == lookups.
func TestStatsConservation(t *testing.T) {
	f := func(seed int64) bool {
		tr, _ := randomCommutativeTrace(seed)
		for _, proto := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
			res, err := RunTrace(memsys.Default(proto, core.DRFrlx), tr)
			if err != nil {
				return false
			}
			s := res.Stats
			if s.Atomics != s.AtomicsAtL1+s.AtomicsAtL2 {
				return false
			}
			if proto == memsys.ProtoGPU && s.AtomicsAtL1 != 0 {
				return false
			}
			if proto == memsys.ProtoDeNovo && s.AtomicsAtL2 != 0 {
				return false
			}
			if s.L2Hits+s.L2Misses > s.L2Accesses {
				return false
			}
			if s.Cycles <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
