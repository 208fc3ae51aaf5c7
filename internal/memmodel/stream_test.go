package memmodel

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
)

// referenceVerdict is the test-local reference verdict: every execution
// Enumerate delivers for the quantum-equivalent program under eo, each
// classified by a fresh Analyze, races and final states collected into
// sets keyed by their descriptions. Execs is the number of executions
// delivered.
func referenceVerdict(t *testing.T, p0 *litmus.Program, m core.Model, eo EnumOptions) *Verdict {
	t.Helper()
	kinds := []RaceKind{DataRace}
	if m == core.DRFrlx {
		kinds = RaceKinds()
	}
	v := &Verdict{Prog: p0.Name, Model: m, Legal: true, Races: map[RaceKind][]string{}, SCResults: map[string]bool{}}
	sets := map[RaceKind]map[string]bool{}
	eo.Quantum = true
	eo.Visit = func(ex *Execution) error {
		a := Analyze(ex)
		v.Execs++
		v.SCResults[ex.ResultKey()] = true
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
		return nil
	}
	if _, err := Enumerate(p0.Under(m), eo); err != nil {
		t.Fatalf("%s/%s reference: %v", p0.Name, m, err)
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

// TestStreamingMatchesNaive is the exactness contract of the streaming
// pipeline: for every catalog program and model, the verdict must equal
// the naive reference (every interleaving, no partial-order reduction)
// byte for byte apart from Execs, which counts the naive interleavings
// there and the reduced enumerator's representatives here.
func TestStreamingMatchesNaive(t *testing.T) {
	for _, tc := range litmus.Suite() {
		for _, m := range []core.Model{core.DRF0, core.DRF1, core.DRFrlx} {
			want := referenceVerdict(t, tc.Prog, m, EnumOptions{Naive: true})
			want.Execs = 0
			got, err := CheckProgram(tc.Prog, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.Prog.Name, m, err)
			}
			got.Execs = 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: verdict diverges from the naive reference\n got: %+v\nwant: %+v",
					tc.Prog.Name, m, got, want)
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
		Quantum: true,
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
		Quantum: true,
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
// pipeline must complete under partial-order reduction and agree, Execs
// included, with the reference: the same sequential reduced enumerator,
// but each execution classified by a fresh Analyze, so the reference is
// independent of the pipeline's Analyzer arena, Recycle and
// partialVerdict.
func TestStreamingNaiveIntractableSeeds(t *testing.T) {
	for _, seed := range []int64{346, 960, 5861} {
		p := randomProgram(seed)
		want := referenceVerdict(t, p, core.DRFrlx, EnumOptions{})
		got, err := CheckProgram(p, core.DRFrlx)
		if err != nil {
			t.Fatalf("seed %d streaming: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: streaming verdict diverges\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}
