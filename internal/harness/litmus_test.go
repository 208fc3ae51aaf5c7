package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rats/internal/core"
	"rats/internal/litmus"
	"rats/internal/memmodel/telemetry"
	"rats/internal/obs"
)

// smallSuite keeps sweep tests fast: a handful of cases spanning legal
// and racy programs.
func smallSuite() []litmus.Case {
	var out []litmus.Case
	want := map[string]bool{"IRIW": true, "WorkQueue": true, "Seqlocks": true, "MPData": true, "WRC": true}
	for _, tc := range litmus.Suite() {
		if want[tc.Prog.Name] {
			out = append(out, tc)
		}
	}
	return out
}

// TestLitmusSweepMatchesDirectChecks: the sweep's verdicts and theorem
// reports must match what the memmodel API returns directly, with
// results in suite order.
func TestLitmusSweepMatchesDirectChecks(t *testing.T) {
	suite := smallSuite()
	if len(suite) < 3 {
		t.Fatalf("small suite only found %d cases", len(suite))
	}
	results, err := LitmusSweep(suite, LitmusSweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(suite) {
		t.Fatalf("got %d results for %d cases", len(results), len(suite))
	}
	for i, r := range results {
		if r.Case.Prog.Name != suite[i].Prog.Name {
			t.Fatalf("result %d is %s, want %s (order lost)", i, r.Case.Prog.Name, suite[i].Prog.Name)
		}
		if len(r.Verdicts) != len(core.Models()) {
			t.Fatalf("%s: %d verdicts", r.Case.Prog.Name, len(r.Verdicts))
		}
		for j, m := range core.Models() {
			if r.Verdicts[j].Legal != r.Case.Legal[j] {
				t.Errorf("%s under %s: legal=%v, suite expects %v", r.Case.Prog.Name, m, r.Verdicts[j].Legal, r.Case.Legal[j])
			}
		}
		if r.Theorem == nil || (r.Theorem.Legal && !r.Theorem.SystemSC) {
			t.Errorf("%s: theorem report %+v", r.Case.Prog.Name, r.Theorem)
		}
		if len(r.Checks) != 0 {
			t.Errorf("%s: checks registered without a registry", r.Case.Prog.Name)
		}
	}
}

// TestLitmusSweepTelemetryDeterministic is the acceptance contract: the
// JSONL telemetry artifact must be byte-identical across worker counts,
// and the registry aggregates must equal the sums over the records.
func TestLitmusSweepTelemetryDeterministic(t *testing.T) {
	suite := smallSuite()
	var outputs []*bytes.Buffer
	var regs []*telemetry.Registry
	for _, workers := range []int{1, 2, 4} {
		reg := telemetry.NewRegistry()
		var buf bytes.Buffer
		prog := obs.NewProgress()
		_, err := LitmusSweep(suite, LitmusSweepOptions{
			Workers: workers,
			Run:     &RunOptions{Checks: reg, Progress: prog, TelemetryOut: &buf},
		})
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, &buf)
		regs = append(regs, reg)

		rep := prog.Snapshot()
		if rep.Total != len(suite) || rep.Done != len(suite) {
			t.Errorf("workers=%d: progress total=%d done=%d, want %d", workers, rep.Total, rep.Done, len(suite))
		}
	}
	for i := 1; i < len(outputs); i++ {
		if !bytes.Equal(outputs[0].Bytes(), outputs[i].Bytes()) {
			t.Errorf("telemetry JSONL differs between worker counts:\n--- workers=1\n%s\n--- other\n%s",
				outputs[0].String(), outputs[i].String())
		}
	}

	// Registry totals must exactly equal the sums over the JSONL records.
	tot := regs[0].Totals()
	var execs, transitions, skips, memo int64
	lines := strings.Split(strings.TrimSpace(outputs[0].String()), "\n")
	wantLines := len(suite) * (len(core.Models()) + 1) // per-model + system
	if len(lines) != wantLines {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), wantLines)
	}
	for _, line := range lines {
		var rec telemetry.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.State != "done" {
			t.Errorf("record %s/%s state = %s", rec.Program, rec.Model, rec.State)
		}
		execs += rec.Executions
		transitions += rec.Transitions
		skips += rec.SleepSkips
		memo += rec.MemoHits
	}
	if tot.Executions != execs || tot.Transitions != transitions || tot.SleepSkips != skips || tot.MemoHits != memo {
		t.Errorf("registry totals %+v do not match JSONL sums (execs=%d transitions=%d skips=%d memo=%d)",
			tot, execs, transitions, skips, memo)
	}
	if tot.States[telemetry.StateDone] != int64(wantLines) {
		t.Errorf("done states = %d, want %d", tot.States[telemetry.StateDone], wantLines)
	}
}

// TestLitmusSweepTheoremOnly: theorem-only sweeps skip verdicts but keep
// the instrumented system-model check.
func TestLitmusSweepTheoremOnly(t *testing.T) {
	suite := smallSuite()[:2]
	reg := telemetry.NewRegistry()
	results, err := LitmusSweep(suite, LitmusSweepOptions{
		TheoremOnly: true,
		Run:         &RunOptions{Checks: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Verdicts != nil {
			t.Errorf("%s: theorem-only sweep produced verdicts", r.Case.Prog.Name)
		}
		if r.Theorem == nil {
			t.Errorf("%s: no theorem report", r.Case.Prog.Name)
		}
		if len(r.Checks) != 1 || r.Checks[0].Model() != "system" {
			t.Errorf("%s: checks = %v", r.Case.Prog.Name, r.Checks)
		}
	}
}

// TestLitmusSweepWorkerIndices: the pool hands every check a suite worker
// index below min(Workers, len(suite)), and results come back in suite
// order — over the whole catalog with two workers, and with more workers
// than cases.
func TestLitmusSweepWorkerIndices(t *testing.T) {
	for _, tc := range []struct {
		suite   []litmus.Case
		workers int
	}{
		{litmus.Suite(), 2},
		{smallSuite()[:2], 8},
	} {
		reg := telemetry.NewRegistry()
		results, err := LitmusSweep(tc.suite, LitmusSweepOptions{Workers: tc.workers, Run: &RunOptions{Checks: reg}})
		if err != nil {
			t.Fatal(err)
		}
		limit := int64(min(tc.workers, len(tc.suite)))
		for i, r := range results {
			if r.Case.Prog.Name != tc.suite[i].Prog.Name {
				t.Fatalf("workers=%d: result %d is %s, want %s", tc.workers, i, r.Case.Prog.Name, tc.suite[i].Prog.Name)
			}
			if len(r.Checks) == 0 {
				t.Errorf("workers=%d: %s registered no checks", tc.workers, r.Case.Prog.Name)
			}
			for _, c := range r.Checks {
				if w := c.Snapshot().SuiteWorker; w < 0 || w >= limit {
					t.Errorf("workers=%d: %s/%s ran on worker %d, want [0,%d)", tc.workers, r.Case.Prog.Name, c.Model(), w, limit)
				}
			}
		}
	}
}
