package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rats/internal/fault"
	"rats/internal/trace"
	"rats/internal/workloads"
)

// TestRunAllAggregatesErrors asserts a sweep reports every failure, not
// just the first, while still returning the runs that succeeded.
func TestRunAllAggregatesErrors(t *testing.T) {
	entries := workloads.Micro()[:1]
	res, err := RunAllWith(entries, workloads.Test, []string{"XD0", "GD0", "XD1"}, nil)
	if err == nil {
		t.Fatal("expected an error for the two bogus configs")
	}
	msg := err.Error()
	for _, want := range []string{"XD0", "XD1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing failure %q:\n%s", want, msg)
		}
	}
	// The good config's run must survive as a partial result.
	if res[entries[0].Name]["GD0"] == nil {
		t.Error("partial results dropped the successful GD0 run")
	}
}

// TestRunAllRecoversPanics injects a workload whose trace builder panics
// and asserts the sweep completes, converts the panic into an error with
// a stack, and still returns the healthy runs.
func TestRunAllRecoversPanics(t *testing.T) {
	good := workloads.Micro()[0]
	bomb := workloads.Entry{
		Name:  "bomb",
		Build: func(workloads.Scale) *trace.Trace { panic("kaboom") },
	}
	res, err := RunAllWith([]workloads.Entry{bomb, good}, workloads.Test, []string{"GD0"}, nil)
	if err == nil {
		t.Fatal("expected the panicking workload to surface as an error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "panic") {
		t.Errorf("error should carry the recovered panic:\n%s", msg)
	}
	if !strings.Contains(msg, "resilience_test") {
		t.Errorf("error should carry the panic's stack trace:\n%s", msg)
	}
	if res[good.Name]["GD0"] == nil {
		t.Error("healthy run lost to a neighbouring panic")
	}
}

// TestRunAllTimeout wedges a warp (with the watchdog disabled) and
// asserts the per-run wall-clock timeout aborts it.
func TestRunAllTimeout(t *testing.T) {
	spec, err := fault.Parse("wedge:warp=0,from=0")
	if err != nil {
		t.Fatal(err)
	}
	entries := workloads.Micro()[:1]
	opts := &RunOptions{
		Timeout:        100 * time.Millisecond,
		Faults:         spec,
		WatchdogWindow: -1, // force the timeout, not the watchdog, to fire
	}
	start := time.Now()
	_, err = RunAllWith(entries, workloads.Test, []string{"GD0"}, opts)
	if err == nil {
		t.Fatal("wedged run completed; expected a timeout error")
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Errorf("error = %v, want a wall-clock timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("timeout took %v to take effect", elapsed)
	}
}

// TestJournalResume records a sweep into a journal, reopens it, and
// asserts (a) completed pairs are restored rather than re-simulated and
// (b) only missing pairs run fresh.
func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	entries := workloads.Micro()[:2]

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := RunAllWith(entries, workloads.Test, []string{"GD0", "DDR"}, &RunOptions{Journal: j1})
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all four (workload, config) pairs must be restored.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Loaded(); got != 4 {
		t.Fatalf("restored %d runs, want 4", got)
	}
	res2, err := RunAllWith(entries, workloads.Test, []string{"GD0", "DDR", "GD1"}, &RunOptions{Journal: j2})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	for _, e := range entries {
		// Journal-restored results have no functional-read closure — the
		// telltale that they were not re-simulated.
		for _, c := range []string{"GD0", "DDR"} {
			r := res2[e.Name][c]
			if r == nil {
				t.Fatalf("%s/%s missing after resume", e.Name, c)
			}
			if r.Read != nil {
				t.Errorf("%s/%s was re-simulated despite a journal entry", e.Name, c)
			}
			if r.Stats != res1[e.Name][c].Stats {
				t.Errorf("%s/%s restored stats differ from the original run", e.Name, c)
			}
		}
		// The config absent from the journal must have run fresh.
		if r := res2[e.Name]["GD1"]; r == nil || r.Read == nil {
			t.Errorf("%s/GD1 should have been freshly simulated", e.Name)
		}
	}
}

// TestJournalTornTail appends garbage (a crash mid-write) to a journal
// and asserts reopening tolerates it, keeping every intact record.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	entries := workloads.Micro()[:1]
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAllWith(entries, workloads.Test, []string{"GD0"}, &RunOptions{Journal: j1}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"workload":"H","config":"DDR","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail should not prevent reopening: %v", err)
	}
	defer j2.Close()
	if got := j2.Loaded(); got != 1 {
		t.Errorf("restored %d runs, want 1 (the intact record)", got)
	}
	if _, ok := j2.Lookup(entries[0].Name, "GD0"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := j2.Lookup("H", "DDR"); ok {
		t.Error("torn record should not have been restored")
	}
}

// TestFigureWithPartialResults asserts Figure3With returns both the
// error and a figure holding whatever succeeded. (Exercised indirectly
// via RunAllWith's contract: buildFigure skips nil results.)
func TestFigureWithPartialResults(t *testing.T) {
	fig, err := Figure3With(workloads.Test, nil)
	if err != nil {
		t.Fatalf("clean Figure3With: %v", err)
	}
	if fig == nil || len(fig.Order) == 0 {
		t.Fatal("Figure3With returned no figure")
	}
}

// TestJournalResumesAfterTimeout: a run that timed out under a journal
// is not recorded, so a rerun on the same journal re-simulates it — and
// succeeds once the cause (here, a wedged warp) is gone.
func TestJournalResumesAfterTimeout(t *testing.T) {
	spec, err := fault.Parse("wedge:warp=0,from=0")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	entries := workloads.Micro()[:1]
	name := entries[0].Name

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunAllWith(entries, workloads.Test, []string{"GD0"}, &RunOptions{
		Journal:        j1,
		Timeout:        100 * time.Millisecond,
		Faults:         spec,
		WatchdogWindow: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("wedged sweep error = %v, want a wall-clock timeout", err)
	}
	j1.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Loaded(); got != 0 {
		t.Fatalf("journal restored %d runs after a timeout, want 0", got)
	}
	res, err := RunAllWith(entries, workloads.Test, []string{"GD0"}, &RunOptions{Journal: j2})
	if err != nil {
		t.Fatalf("rerun without faults: %v", err)
	}
	if r := res[name]["GD0"]; r == nil || r.Read == nil {
		t.Fatalf("%s/GD0 was not re-simulated on the rerun", name)
	}
	if _, ok := j2.Lookup(name, "GD0"); !ok {
		t.Error("successful rerun was not journaled")
	}
}

// TestJournalSkipsAttemptLines: journals written before failed attempts
// stopped being journaled hold "kind":"attempt" lines. They carry no
// result and must not load as a completed (zero-stats) run.
func TestJournalSkipsAttemptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	line := `{"kind":"attempt","workload":"H","config":"GD0","attempt":1,"error":"run timed out"}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok := j.Lookup("H", "GD0"); ok {
		t.Error("attempt line loaded as a completed run")
	}
	if got := j.Loaded(); got != 0 {
		t.Errorf("restored %d runs, want 0", got)
	}
}
