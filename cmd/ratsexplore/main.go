// Command ratsexplore sweeps one simulator parameter across a range of
// values for a workload/configuration pair — the interactive counterpart
// of the ablation benchmarks.
//
// Usage:
//
//	ratsexplore -workload HG -config DDR -param mshr-targets -values 1,2,4,8
//	ratsexplore -params   # list sweepable parameters
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"rats/internal/harness"
	"rats/internal/sim/memsys"
	"rats/internal/sim/system"
	"rats/internal/workloads"
)

// params maps sweepable names to config setters.
var params = map[string]func(*memsys.Config, int64){
	"l2-atomic-occupancy": func(c *memsys.Config, v int64) { c.L2AtomicOccupancy = v },
	"l1-atomic-occupancy": func(c *memsys.Config, v int64) { c.L1AtomicOccupancy = v },
	"l2-latency":          func(c *memsys.Config, v int64) { c.L2Lat = v },
	"l2-tag-latency":      func(c *memsys.Config, v int64) { c.L2TagLat = v },
	"dram-latency":        func(c *memsys.Config, v int64) { c.DRAMLat = v },
	"hop-latency":         func(c *memsys.Config, v int64) { c.HopLat = v },
	"mshr-targets":        func(c *memsys.Config, v int64) { c.L1MSHRTargets = int(v) },
	"mshrs":               func(c *memsys.Config, v int64) { c.L1MSHRs = int(v) },
	"store-buffer":        func(c *memsys.Config, v int64) { c.StoreBuffer = int(v) },
	"warp-mlp":            func(c *memsys.Config, v int64) { c.MaxOutstandingPerWarp = int(v) },
	"atomic-mlp":          func(c *memsys.Config, v int64) { c.MaxOutstandingAtomicsPerWarp = int(v) },
}

func main() {
	var (
		workload  = flag.String("workload", "HG", "workload short name")
		config    = flag.String("config", "DDR", "base configuration")
		param     = flag.String("param", "mshr-targets", "parameter to sweep")
		values    = flag.String("values", "1,2,4,8,16", "comma-separated values")
		scaleName = flag.String("scale", "test", "workload scale: test or paper")
		list      = flag.Bool("params", false, "list sweepable parameters")
	)
	flag.Parse()

	if *list {
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "ratsexplore:", err)
			os.Exit(1)
		}
	}
	setter, ok := params[*param]
	if !ok {
		die(fmt.Errorf("unknown parameter %q (use -params)", *param))
	}
	entry := workloads.ByName(*workload)
	if entry == nil {
		die(fmt.Errorf("unknown workload %q", *workload))
	}
	scale, err := workloads.ParseScale(*scaleName)
	die(err)

	fmt.Printf("sweeping %s on %s/%s\n", *param, *workload, *config)
	var base float64
	for _, vs := range strings.Split(*values, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(vs), 10, 64)
		die(err)
		cfg, err := harness.ConfigFor(*config)
		die(err)
		setter(&cfg, v)
		res, err := system.RunTrace(cfg, entry.Build(scale))
		die(err)
		cyc := float64(res.Stats.Cycles)
		if base == 0 {
			base = cyc
		}
		fmt.Printf("  %-6d %10d cycles  %6.3fx  energy %12.0f pJ  flit-hops %10d\n",
			v, res.Stats.Cycles, cyc/base, res.Energy.Total(), res.Stats.NoCFlitHops)
	}
}
