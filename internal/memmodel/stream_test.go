package memmodel

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// naiveVerdict is the test-local reference verdict: every SC interleaving
// of the quantum-equivalent program (Naive enumeration, no partial-order
// reduction), each classified by Analyze, races and final states
// collected into sets. Execs is left zero: it counts the naive
// interleavings, not the reduced enumerator's representatives.
func naiveVerdict(t *testing.T, p0 *litmus.Program, m core.Model) *Verdict {
	t.Helper()
	execs, err := Enumerate(p0.Under(m), EnumOptions{Quantum: true, Naive: true})
	if err != nil {
		t.Fatalf("%s/%s naive: %v", p0.Name, m, err)
	}
	kinds := []RaceKind{DataRace}
	if m == core.DRFrlx {
		kinds = RaceKinds()
	}
	v := &Verdict{Prog: p0.Name, Model: m, Legal: true, Races: map[RaceKind][]string{}, SCResults: map[string]bool{}}
	sets := map[RaceKind]map[string]bool{}
	for _, ex := range execs {
		v.SCResults[ex.ResultKey()] = true
		a := Analyze(ex)
		for _, k := range kinds {
			for _, pr := range a.Races[k] {
				ei, ej := &ex.Events[pr[0]], &ex.Events[pr[1]]
				if sets[k] == nil {
					sets[k] = map[string]bool{}
				}
				sets[k][fmt.Sprintf("T%d.%d(%s)~T%d.%d(%s)",
					ei.Thread, ei.OpIndex, ei.Op.Class, ej.Thread, ej.OpIndex, ej.Op.Class)] = true
			}
		}
	}
	for k, set := range sets {
		v.Legal = false
		for d := range set {
			v.Races[k] = append(v.Races[k], d)
		}
		sort.Strings(v.Races[k])
	}
	return v
}

// TestStreamingMatchesNaive is the determinism and exactness contract of
// the streaming pipeline: for every catalog program and model, the
// verdict at several worker counts must equal the naive reference
// (every interleaving, no partial-order reduction) byte for byte apart
// from Execs, and Execs must not depend on the worker count — delivery
// order is unspecified, but every aggregated field is a set merged by
// union and finished by a sort.
func TestStreamingMatchesNaive(t *testing.T) {
	for _, tc := range litmus.Suite() {
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			want := naiveVerdict(t, tc.Prog, m)
			var first *Verdict
			for _, workers := range []int{1, 2, 5} {
				got, err := CheckProgramWith(tc.Prog, m, CheckOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.Prog.Name, m, workers, err)
				}
				if first == nil {
					first = got
				} else if got.Summary() != first.Summary() || got.Execs != first.Execs {
					t.Errorf("%s/%s workers=%d: summary diverges from workers=1: %q vs %q",
						tc.Prog.Name, m, workers, got.Summary(), first.Summary())
				}
				cmp := *got
				cmp.Execs = 0
				if !reflect.DeepEqual(&cmp, want) {
					t.Errorf("%s/%s workers=%d: verdict diverges from the naive reference\n got: %+v\nwant: %+v",
						tc.Prog.Name, m, workers, &cmp, want)
				}
			}
		}
	}
}

// TestStreamingRecyclesExecutions pins the bounded-memory half of the
// Visit/Recycle contract: a consumer that hands each execution back via
// Recycle keeps the enumerator on a single Execution object regardless of
// how many executions the program has — no O(#executions) allocation.
func TestStreamingRecyclesExecutions(t *testing.T) {
	p := litmus.ByName("Flags_2")
	if p == nil {
		t.Fatal("no Flags_2 in suite")
	}
	seen := map[*Execution]bool{}
	visits := 0
	var spare *Execution
	_, err := Enumerate(p.Prog.Under(core.DRFrlx), EnumOptions{
		Quantum:    true,
		Sequential: true,
		Recycle: func() *Execution {
			ex := spare
			spare = nil
			return ex
		},
		Visit: func(ex *Execution) error {
			seen[ex] = true
			visits++
			spare = ex
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits < 2 {
		t.Fatalf("want multiple executions, got %d", visits)
	}
	if len(seen) != 1 {
		t.Errorf("recycling consumer saw %d distinct Executions over %d visits, want 1", len(seen), visits)
	}
}

// TestStreamingStopsOnErrStop: returning ErrStop from Visit ends
// enumeration cleanly after the current execution.
func TestStreamingStopsOnErrStop(t *testing.T) {
	p := litmus.ByName("IRIW")
	if p == nil {
		t.Fatal("no IRIW in suite")
	}
	visits := 0
	execs, err := Enumerate(p.Prog.Under(core.DRFrlx), EnumOptions{
		Quantum:    true,
		Sequential: true,
		Visit: func(ex *Execution) error {
			visits++
			if visits == 3 {
				return ErrStop
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("ErrStop must not surface as an error: %v", err)
	}
	if execs != nil {
		t.Errorf("streaming enumeration must not materialize executions, got %d", len(execs))
	}
	if visits != 3 {
		t.Errorf("visits after ErrStop: got %d, want 3", visits)
	}
}

// TestStreamingNaiveIntractableSeeds checks whole-program verdicts on the
// random programs whose naive enumeration exceeds the execution limit
// (the trailing seeds of TestTheoremPropertyRandom): the streaming
// pipeline must complete under partial-order reduction, and its
// single-worker inline path must agree with the default worker pool.
func TestStreamingNaiveIntractableSeeds(t *testing.T) {
	for _, seed := range []int64{346, 960, 5861} {
		p := randomProgram(seed)
		want, err := CheckProgramWith(p, core.DRFrlx, CheckOptions{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d workers=1: %v", seed, err)
		}
		got, err := CheckProgram(p, core.DRFrlx)
		if err != nil {
			t.Fatalf("seed %d streaming: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: streaming verdict diverges\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}
