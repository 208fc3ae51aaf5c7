package memmodel

import (
	"errors"
	"runtime"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
)

// TestCheckTelemetryCounts: an instrumented check's counters must agree
// with the verdict it produced — executions enumerated equals
// Verdict.Execs, every enumerated execution was analyzed, and the merge
// sizes match the verdict's race/SC sets.
func TestCheckTelemetryCounts(t *testing.T) {
	for _, prog := range []*litmus.Program{litmus.IRIW(), litmus.WorkQueue(), litmus.MPData()} {
		c := telemetry.NewCheck(prog.Name, core.DRFrlx.String())
		v, err := CheckProgramWith(prog, core.DRFrlx, CheckOptions{Telemetry: c})
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		if c.State() != telemetry.StateDone {
			t.Errorf("%s: state = %v, want done", prog.Name, c.State())
		}
		s := c.Snapshot()
		if s.Executions != int64(v.Execs) {
			t.Errorf("%s: telemetry executions = %d, verdict execs = %d", prog.Name, s.Executions, v.Execs)
		}
		if s.Analyzed != s.Executions {
			t.Errorf("%s: analyzed = %d, enumerated = %d", prog.Name, s.Analyzed, s.Executions)
		}
		if s.Transitions < s.Executions {
			t.Errorf("%s: transitions = %d < executions = %d", prog.Name, s.Transitions, s.Executions)
		}
		var distinct int
		for _, descs := range v.Races {
			distinct += len(descs)
		}
		if s.RacePairs != int64(distinct) {
			t.Errorf("%s: race pairs = %d, verdict distinct races = %d", prog.Name, s.RacePairs, distinct)
		}
		if s.SCResults != int64(len(v.SCResults)) {
			t.Errorf("%s: sc results = %d, verdict = %d", prog.Name, s.SCResults, len(v.SCResults))
		}
		if s.BudgetFraction <= 0 || s.BudgetFraction > 1 {
			t.Errorf("%s: budget fraction = %v", prog.Name, s.BudgetFraction)
		}
	}
}

// TestCheckTelemetryDeterministic: a check runs on its caller's
// goroutine, so its counters are a function of the explored search tree,
// not of scheduling — the deterministic Record and the live analysis and
// recycle counters must not change with GOMAXPROCS.
func TestCheckTelemetryDeterministic(t *testing.T) {
	prog := litmus.Seqlocks()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want telemetry.Record
	var wantLive [3]int64
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		c := telemetry.NewCheck(prog.Name, core.DRFrlx.String())
		if _, err := CheckProgramWith(prog, core.DRFrlx, CheckOptions{Telemetry: c}); err != nil {
			t.Fatal(err)
		}
		rec, s := c.Record(), c.Snapshot()
		live := [3]int64{s.Analyzed, s.Recycled, s.Allocated}
		if i == 0 {
			want, wantLive = rec, live
			continue
		}
		if rec != want {
			t.Errorf("GOMAXPROCS=%d: record = %+v, want %+v", procs, rec, want)
		}
		if live != wantLive {
			t.Errorf("GOMAXPROCS=%d: analyzed/recycled/allocated = %v, want %v", procs, live, wantLive)
		}
	}
}

// TestCheckTelemetryVerdictUnchanged: instrumentation must not perturb
// verdicts across the suite.
func TestCheckTelemetryVerdictUnchanged(t *testing.T) {
	for _, tc := range litmus.Suite() {
		c := telemetry.NewCheck(tc.Prog.Name, core.DRFrlx.String())
		instrumented, err := CheckProgramWith(tc.Prog, core.DRFrlx, CheckOptions{Telemetry: c})
		if err != nil {
			t.Fatalf("%s: %v", tc.Prog.Name, err)
		}
		plain, err := CheckProgram(tc.Prog, core.DRFrlx)
		if err != nil {
			t.Fatalf("%s: %v", tc.Prog.Name, err)
		}
		if instrumented.Legal != plain.Legal || instrumented.Execs != plain.Execs {
			t.Errorf("%s: instrumented verdict differs: %+v vs %+v", tc.Prog.Name, instrumented, plain)
		}
	}
}

// enumerateTrip runs a default-mode, instrumented Enumerate of p twice,
// expecting a budget trip each time, and checks the trip is deterministic:
// Executions and the trip-time telemetry's Transitions agree across the
// two runs. It returns the first run's *LimitError.
func enumerateTrip(t *testing.T, p *litmus.Program, opts EnumOptions) *LimitError {
	t.Helper()
	var first *LimitError
	for run := 0; run < 2; run++ {
		opts.Telemetry = telemetry.NewCheck(p.Name, "enumerate")
		_, err := Enumerate(p, opts)
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("%s run %d: want *LimitError, got %v", p.Name, run, err)
		}
		if le.Telemetry == nil {
			t.Fatalf("%s run %d: limit error carries no telemetry", p.Name, run)
		}
		if first == nil {
			first = le
		} else if le.Executions != first.Executions || le.Telemetry.Transitions != first.Telemetry.Transitions {
			t.Errorf("%s: trip differs between runs: executions %d vs %d, transitions %d vs %d", p.Name,
				first.Executions, le.Executions, first.Telemetry.Transitions, le.Telemetry.Transitions)
		}
	}
	return first
}

// TestLimitErrorStructured: a budget trip surfaces the structured
// *LimitError while preserving the ErrLimit sentinel, in both search
// phases and from a direct default-mode Enumerate.
func TestLimitErrorStructured(t *testing.T) {
	c := telemetry.NewCheck("IRIW", core.DRFrlx.String())
	_, err := CheckProgramWith(litmus.IRIW(), core.DRFrlx, CheckOptions{Limit: 3, Telemetry: c})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %T", err)
	}
	if le.Phase != "enumeration" || le.Limit != 3 || le.Executions != 3 || le.Prog == "" {
		t.Errorf("limit error fields = %+v", le)
	}
	if le.Telemetry == nil || le.Telemetry.Executions != 3 {
		t.Errorf("limit error telemetry = %+v", le.Telemetry)
	}
	if c.State() != telemetry.StateLimit {
		t.Errorf("state = %v, want limit", c.State())
	}

	sysTel := telemetry.NewCheck("IRIW/system", "system")
	_, err = SystemResultsWith(litmus.IRIW().Under(core.DRFrlx), 2, sysTel)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("system model: want ErrLimit, got %v", err)
	}
	le = nil
	if !errors.As(err, &le) {
		t.Fatalf("system model: want *LimitError, got %T", err)
	}
	if le.Phase != "system model" || le.Limit != 2 || le.Executions != 2 {
		t.Errorf("system limit error fields = %+v", le)
	}
	if sysTel.State() != telemetry.StateLimit {
		t.Errorf("system state = %v, want limit", sysTel.State())
	}

	le = enumerateTrip(t, litmus.IRIW(), EnumOptions{Quantum: true, Limit: 3})
	if le.Phase != "enumeration" || le.Limit != 3 || le.Executions != 3 {
		t.Errorf("enumerate limit error fields = %+v", le)
	}
}

// TestSystemResultsTelemetry: the memoized system search reports memo
// hits and finishes done; results are unchanged by instrumentation.
func TestSystemResultsTelemetry(t *testing.T) {
	prog := litmus.IRIW().Under(core.DRFrlx)
	c := telemetry.NewCheck(prog.Name, "system")
	instrumented, err := SystemResultsWith(prog, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SystemResults(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(instrumented) != len(plain) {
		t.Errorf("instrumented results = %d, plain = %d", len(instrumented), len(plain))
	}
	if c.State() != telemetry.StateDone {
		t.Errorf("state = %v, want done", c.State())
	}
	s := c.Snapshot()
	if s.Executions == 0 || s.Transitions == 0 {
		t.Errorf("system counters empty: %+v", s)
	}
	if s.MemoHits == 0 {
		t.Errorf("memoized search reported zero memo hits")
	}
}
