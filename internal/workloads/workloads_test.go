package workloads

import (
	"testing"

	"rats/internal/core"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
	"rats/internal/trace"
)

// TestAllWorkloadsFunctional runs every workload at Test scale under all
// six configurations; the traces' FinalCheck must pass everywhere (the
// protocols and models may reorder, but never corrupt, the results).
func TestAllWorkloadsFunctional(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			for _, proto := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
				for _, m := range core.Models() {
					tr := e.Build(Test)
					if _, err := system.RunTrace(memsys.Default(proto, m), tr); err != nil {
						t.Fatalf("%s under %v/%v: %v", e.Name, proto, m, err)
					}
				}
			}
		})
	}
}

// TestWorkloadsUseDeclaredClasses verifies that each trace only uses the
// relaxed-atomic classes Table 3 declares for it (plus paired/data).
func TestWorkloadsUseDeclaredClasses(t *testing.T) {
	declared := map[string][]core.Class{
		"H":     {core.Commutative},
		"HG":    {core.Commutative},
		"HG-NO": {core.NonOrdering},
		"Flags": {core.Commutative, core.NonOrdering},
		"SC":    {core.Quantum},
		"RC":    {core.Quantum, core.Commutative}, // commutative mark store
		"SEQ":   {core.Speculative},
		"UTS":   {core.Unpaired},
		"BC-1":  {core.Commutative, core.NonOrdering},
		"PR-1":  {core.Commutative},
	}
	for name, classes := range declared {
		e := ByName(name)
		if e == nil {
			t.Fatalf("workload %s missing from registry", name)
		}
		allowed := map[core.Class]bool{core.Data: true, core.Paired: true}
		for _, c := range classes {
			allowed[c] = true
		}
		tr := e.Build(Test)
		used := map[core.Class]bool{}
		for _, w := range tr.Warps {
			for _, op := range w.Ops {
				if op.Kind.IsMem() {
					used[op.Class] = true
					if !allowed[op.Class] {
						t.Errorf("%s uses undeclared class %v", name, op.Class)
					}
				}
			}
		}
		// The headline class must actually appear.
		if !used[classes[0]] {
			t.Errorf("%s never uses its headline class %v", name, classes[0])
		}
	}
}

// TestRegistryComplete checks Table 3 coverage: 7 microbenchmarks, UTS,
// 4 BC graphs, 4 PR graphs, and 9 Figure 1 applications.
func TestRegistryComplete(t *testing.T) {
	if got := len(Micro()); got != 7 {
		t.Errorf("microbenchmarks: %d, want 7", got)
	}
	if got := len(Benchmarks()); got != 9 {
		t.Errorf("benchmarks: %d, want 9 (UTS + 4 BC + 4 PR)", got)
	}
	if got := len(Figure1Apps()); got != 9 {
		t.Errorf("Figure 1 applications: %d, want 9", got)
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
	if e := ByName("SEQ"); e == nil || e.Full != "Seqlocks" {
		t.Error("ByName(SEQ) wrong")
	}
}

// TestTracesAreDeterministic: building twice yields identical op streams.
func TestTracesAreDeterministic(t *testing.T) {
	for _, e := range All() {
		a, b := e.Build(Test), e.Build(Test)
		if len(a.Warps) != len(b.Warps) || a.NumOps() != b.NumOps() {
			t.Fatalf("%s nondeterministic shape", e.Name)
		}
		for i := range a.Warps {
			for j := range a.Warps[i].Ops {
				oa, ob := a.Warps[i].Ops[j], b.Warps[i].Ops[j]
				if oa.Kind != ob.Kind || oa.Class != ob.Class || len(oa.Addrs) != len(ob.Addrs) {
					t.Fatalf("%s warp %d op %d differs", e.Name, i, j)
				}
			}
		}
	}
}

// TestPaperScaleLarger: Paper scale must strictly grow the op count.
func TestPaperScaleLarger(t *testing.T) {
	for _, e := range All() {
		small := e.Build(Test).NumOps()
		big := e.Build(Paper).NumOps()
		if big <= small {
			t.Errorf("%s: Paper scale (%d ops) not larger than Test scale (%d ops)", e.Name, big, small)
		}
	}
}

// TestUTSTreeShape: the generated tree hits its node budget and is
// genuinely unbalanced.
func TestUTSTreeShape(t *testing.T) {
	p := DefaultUTS(Test)
	kids, parents := utsTree(p)
	if len(kids) < p.Nodes/2 {
		t.Fatalf("tree has %d nodes, target %d", len(kids), p.Nodes)
	}
	if len(parents) != len(kids) || parents[0] != -1 {
		t.Fatal("parent array malformed")
	}
	for i := 1; i < len(parents); i++ {
		if parents[i] < 0 || parents[i] >= i {
			t.Fatalf("node %d has invalid parent %d", i, parents[i])
		}
	}
	max := 0
	leaves := 0
	for _, k := range kids {
		if k > max {
			max = k
		}
		if k == 0 {
			leaves++
		}
	}
	if max < 3 {
		t.Error("tree has no wide fan-out — not unbalanced")
	}
	if leaves < len(kids)/3 {
		t.Error("tree has too few leaves")
	}
}

// TestTraceOpMix sanity-checks that atomic-heavy workloads are actually
// atomic-heavy (HG) and that Hist keeps most work local (scratchpad).
func TestTraceOpMix(t *testing.T) {
	count := func(tr *trace.Trace, k trace.Kind) int {
		n := 0
		for _, w := range tr.Warps {
			for _, op := range w.Ops {
				if op.Kind == k {
					n++
				}
			}
		}
		return n
	}
	hg := HistGlobal(DefaultHist(Test))
	if a, l := count(hg, trace.Atomic), count(hg, trace.Load); a < l {
		t.Errorf("HG should be atomic-dominated: atomics=%d loads=%d", a, l)
	}
	h := Hist(DefaultHist(Test))
	if s := count(h, trace.ScratchStore); s == 0 {
		t.Error("Hist should use the scratchpad")
	}
	// H's global atomic ops are bounded by bins, not elements.
	if a := count(h, trace.Atomic); a > 2*len(h.Warps)*256/32+len(h.Warps) {
		t.Errorf("Hist issues too many global atomics: %d", a)
	}
}

// TestUTSHRFScopedFunctional: the HRF-scoped UTS variant stays
// functionally exact under every configuration and is faster than the
// unscoped version on GPU coherence.
func TestUTSHRFScopedFunctional(t *testing.T) {
	p := DefaultUTS(Test)
	p.HRFScopes = true
	for _, proto := range []memsys.Protocol{memsys.ProtoGPU, memsys.ProtoDeNovo} {
		for _, m := range core.Models() {
			if _, err := system.RunTrace(memsys.Default(proto, m), UTS(p)); err != nil {
				t.Fatalf("scoped UTS under %v/%v: %v", proto, m, err)
			}
		}
	}
	unscoped := DefaultUTS(Test)
	r0, err := system.RunTrace(memsys.Default(memsys.ProtoGPU, core.DRF0), UTS(unscoped))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := system.RunTrace(memsys.Default(memsys.ProtoGPU, core.DRF0), UTS(p))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cycles >= r0.Stats.Cycles {
		t.Errorf("HRF scopes did not speed up UTS: %d vs %d", r1.Stats.Cycles, r0.Stats.Cycles)
	}
}

// TestParseScale: only the exact flag values name a scale; a typo such
// as "Paper" is an error, not a silent test-scale run.
func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scale
		ok   bool
	}{
		{"test", Test, true},
		{"paper", Paper, true},
		{"Paper", Test, false},
		{"TEST", Test, false},
		{"", Test, false},
		{" paper", Test, false},
		{"full", Test, false},
	} {
		got, err := ParseScale(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("ParseScale(%q) error = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseScale(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
