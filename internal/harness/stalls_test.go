package harness

import (
	"strings"
	"testing"

	"rats/internal/workloads"
)

// TestStallSweep also pins the parallel sweeps' ordering: StallSweep
// rows and LatencySweep cells come back in cfgNames order (here the
// reverse of ConfigOrder), each holding its own configuration's run.
func TestStallSweep(t *testing.T) {
	entry := workloads.ByName("H")
	if entry == nil {
		t.Fatal("workload H missing")
	}
	var cfgNames []string
	for i := len(ConfigOrder) - 1; i >= 0; i-- {
		cfgNames = append(cfgNames, ConfigOrder[i])
	}
	rows, err := StallSweep(*entry, workloads.Test, cfgNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfgNames) {
		t.Fatalf("got %d rows for %d configs", len(rows), len(cfgNames))
	}
	plain, err := RunAllWith([]workloads.Entry{*entry}, workloads.Test, cfgNames, nil)
	if err != nil {
		t.Fatal(err)
	}
	anyStall := false
	for i, row := range rows {
		if row.Config != cfgNames[i] {
			t.Errorf("row %d config %q, want %q", i, row.Config, cfgNames[i])
		}
		if want := plain[entry.Name][row.Config].Stats.Cycles; row.Cycles != want {
			t.Errorf("%s: row cycles %d, want %d from its own run", row.Config, row.Cycles, want)
		}
		if row.Cycles <= 0 {
			t.Errorf("%s: no cycles recorded", row.Config)
		}
		for _, v := range row.Totals {
			if v < 0 {
				t.Errorf("%s: negative stall total", row.Config)
			}
			if v > 0 {
				anyStall = true
			}
		}
	}
	if !anyStall {
		t.Error("sweep recorded zero stalls across all configs")
	}
	out := RenderStallSweep(entry.Name, rows)
	for _, want := range []string{"GD0", "DDR", "memory", "consistency"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q", want)
		}
	}

	entries := []workloads.Entry{*workloads.ByName("HG"), *entry}
	cells, err := LatencySweep(entries, workloads.Test, cfgNames)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(entries)*len(cfgNames) {
		t.Fatalf("got %d latency cells for %d runs", len(cells), len(entries)*len(cfgNames))
	}
	for i, c := range cells {
		e, cfg := entries[i/len(cfgNames)].Name, cfgNames[i%len(cfgNames)]
		if c.Workload != e || c.Config != cfg {
			t.Errorf("cell %d is %s/%s, want %s/%s", i, c.Workload, c.Config, e, cfg)
		}
		if e == entry.Name && c.Cycles != rows[i%len(cfgNames)].Cycles {
			t.Errorf("%s/%s: latency run took %d cycles, stall run %d", e, cfg, c.Cycles, rows[i%len(cfgNames)].Cycles)
		}
	}
}

func TestStallSweepUnknownConfig(t *testing.T) {
	entry := workloads.ByName("H")
	if _, err := StallSweep(*entry, workloads.Test, []string{"XXX"}); err == nil {
		t.Error("expected error for unknown config")
	}
}
