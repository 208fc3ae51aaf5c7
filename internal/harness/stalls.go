package harness

import (
	"fmt"
	"strings"

	"rats/internal/probe"
	"rats/internal/workloads"
)

// StallRow is one configuration's aggregated stall attribution for a
// workload: total cycles lost per reason, summed over all warps.
type StallRow struct {
	Config string
	Cycles int64 // run length
	Totals [probe.NumStallReasons]int64
}

// StallSweep runs one workload under each named configuration with a
// stall-attribution sink attached, returning the per-config breakdown
// in cfgNames order (the runs execute in parallel). It shows where each
// consistency model spends its waiting time — e.g. DRF0's consistency
// stalls melting away under DRFrlx while memory stalls stay put.
func StallSweep(entry workloads.Entry, scale workloads.Scale, cfgNames []string) ([]StallRow, error) {
	runs, err := grid([]workloads.Entry{entry}, cfgNames, func() probe.Sink { return probe.NewStallSink() })
	if err != nil {
		return nil, err
	}
	res, err := sweep(runs, scale, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]StallRow, len(runs))
	for i, r := range runs {
		rows[i] = StallRow{Config: r.cfgName, Cycles: res[i].Stats.Cycles, Totals: r.sink.(*probe.StallSink).ReasonTotals()}
	}
	return rows, nil
}

// RenderStallSweep draws the sweep as a config × reason table.
func RenderStallSweep(workload string, rows []StallRow) string {
	reasons := []probe.StallReason{
		probe.StallIssue, probe.StallMemory, probe.StallBarrier,
		probe.StallStoreBufferFull, probe.StallConsistency,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stall attribution sweep: %s (summed warp-cycles per reason)\n", workload)
	fmt.Fprintf(&b, "  %-8s %10s", "config", "cycles")
	for _, r := range reasons {
		fmt.Fprintf(&b, " %18s", r)
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-8s %10d", row.Config, row.Cycles)
		for _, r := range reasons {
			fmt.Fprintf(&b, " %18d", row.Totals[r])
		}
		b.WriteString("\n")
	}
	return b.String()
}
