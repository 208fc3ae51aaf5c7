// Command ratsim runs one workload under one configuration and prints the
// timing, event, and energy statistics.
//
// Usage:
//
//	ratsim -workload PR-3 -config DDR [-scale paper] [-energy]
//	ratsim -workload H -config DDR -trace-out run.json -stalls
//	ratsim -workload H -config DDR -spans-out spans.jsonl -latency
//	ratsim -workload H -config DDR -http :6060 -http-linger 30s
//	ratsim -workload H -config GD0 -faults 'delay:p=0.05,max=10;dup:p=0.02' -fault-seed 7
//	ratsim -workload H -config GD0 -faults 'wedge:warp=0,from=0' -watchdog 20000
//	ratsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rats/internal/fault"
	"rats/internal/harness"
	"rats/internal/obs"
	"rats/internal/probe"
	"rats/internal/sim/system"
	"rats/internal/trace"
	"rats/internal/workloads"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ratsim:", err)
	os.Exit(1)
}

func main() {
	var (
		workload  = flag.String("workload", "H", "workload short name (see -list)")
		config    = flag.String("config", "GD0", "configuration: GD0, GD1, GDR, DD0, DD1, DDR")
		scaleName = flag.String("scale", "test", "workload scale: test or paper")
		list      = flag.Bool("list", false, "list workloads and exit")
		showEn    = flag.Bool("energy", true, "print the energy breakdown")
		dump      = flag.String("dump", "", "write the generated trace as JSON to this file and exit")
		replay    = flag.String("replay", "", "run a JSON trace file instead of a generated workload")

		traceOut   = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON timeline to this file")
		metricsOut = flag.String("metrics-out", "", "write interval-sampled counters to this file (.json for JSON, else CSV)")
		metricsInt = flag.Int64("metrics-interval", 1000, "sampling interval in cycles for -metrics-out and -http")
		stalls     = flag.Bool("stalls", false, "print the per-warp stall attribution table")
		spansOut   = flag.String("spans-out", "", "write per-transaction latency spans as JSONL to this file")
		latency    = flag.Bool("latency", false, "print the per-transaction latency table (op class x hit level)")
		httpAddr   = flag.String("http", "", "serve live /metrics, /progress, and pprof on this address, e.g. :6060")
		httpLinger = flag.Duration("http-linger", 0, "keep the -http server up this long after the run finishes")

		faultSpec = flag.String("faults", "", "fault-injection spec, e.g. 'delay:p=0.05,max=10;dup:p=0.02' (see internal/fault)")
		faultSeed = flag.Int64("fault-seed", 1, "PRNG seed for fault injection (same spec+seed = same timing)")
		watchdog  = flag.Int64("watchdog", 0, "liveness watchdog no-progress window in cycles (>0 override, <0 disable, 0 default)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit for the run (0 = none), e.g. 30s")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *list {
		fmt.Println(harness.Table3())
		return
	}
	scale, err := workloads.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	cfg, err := harness.ConfigFor(*config)
	if err != nil {
		fatal(err)
	}
	if *faultSpec != "" {
		spec, err := fault.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = spec
		cfg.FaultSeed = *faultSeed
	}
	switch {
	case *watchdog > 0:
		cfg.WatchdogWindow = *watchdog
	case *watchdog < 0:
		cfg.WatchdogWindow = 0
	}
	var tr *trace.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		tr, err = trace.DecodeJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		entry := workloads.ByName(*workload)
		if entry == nil {
			fmt.Fprintf(os.Stderr, "ratsim: unknown workload %q (use -list)\n", *workload)
			os.Exit(1)
		}
		tr = entry.Build(scale)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tr.EncodeJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d warps, %d ops)\n", *dump, len(tr.Warps), tr.NumOps())
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Observability sinks: any of these flags attaches a probe hub.
	var (
		hub        *probe.Hub
		stallSink  *probe.StallSink
		spanWriter *probe.SpanWriter
		latSink    *probe.LatencySink
		server     *obs.Server
		progress   *obs.Progress
		closers    []*os.File
	)
	if *traceOut != "" || *metricsOut != "" || *stalls || *spansOut != "" || *latency || *httpAddr != "" {
		hub = probe.NewHub()
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			closers = append(closers, f)
			hub.Attach(probe.NewChromeTrace(f))
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fatal(err)
			}
			closers = append(closers, f)
			format := probe.FormatCSV
			if strings.HasSuffix(*metricsOut, ".json") {
				format = probe.FormatJSON
			}
			hub.Attach(probe.NewIntervalSink(f, format))
			hub.SetSampleInterval(*metricsInt)
		}
		if *stalls {
			stallSink = probe.NewStallSink()
			hub.Attach(stallSink)
		}
		if *spansOut != "" {
			f, err := os.Create(*spansOut)
			if err != nil {
				fatal(err)
			}
			closers = append(closers, f)
			spanWriter = probe.NewSpanWriter(f)
			hub.Attach(spanWriter)
		}
		if *latency || *httpAddr != "" {
			latSink = probe.NewLatencySink()
			hub.Attach(latSink)
		}
		if *httpAddr != "" {
			gauge := &obs.StatsGauge{}
			hub.Attach(gauge)
			hub.SetSampleInterval(*metricsInt)
			progress = obs.NewProgress()
			server = obs.NewServer()
			server.SetRunInfo("workload", *workload)
			server.SetRunInfo("config", *config)
			server.SetRunInfo("scale", *scaleName)
			server.SetGauge(gauge)
			server.SetLatency(latSink)
			server.SetProgress(progress)
			addr, err := server.Start(*httpAddr)
			if err != nil {
				fatal(err)
			}
			defer server.Close()
			fmt.Printf("observability server on http://%s (/metrics /progress /debug/pprof)\n", addr)
		}
	}

	fmt.Printf("running %s (%d warps, %d ops) under %s/%s\n",
		tr.Name, len(tr.Warps), tr.NumOps(), cfg.Protocol, cfg.Model)
	sys := system.New(cfg)
	if hub != nil {
		sys.AttachProbe(hub)
	}
	if err := sys.Load(tr); err != nil {
		fatal(err)
	}
	if *timeout > 0 {
		t := time.AfterFunc(*timeout, func() { sys.Abort(fmt.Sprintf("wall-clock timeout %s exceeded", *timeout)) })
		defer t.Stop()
	}
	linger := func() {
		if server != nil && *httpLinger > 0 {
			fmt.Printf("lingering %s for /metrics scrapes\n", *httpLinger)
			time.Sleep(*httpLinger)
		}
	}
	if progress != nil {
		progress.Start(tr.Name, *config)
	}
	res, err := sys.Run()
	if err != nil {
		if progress != nil {
			progress.Fail(tr.Name, *config, err)
		}
		linger()
		fatal(err)
	}
	if progress != nil {
		progress.Done(tr.Name, *config, res.Stats.Cycles)
	}
	if counts, ok := sys.FaultCounts(); ok {
		fmt.Println("injected faults:", counts.String())
	}
	if hub != nil {
		if err := hub.Close(); err != nil {
			fatal(err)
		}
		for _, f := range closers {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Println(res.Stats.String())
	if stallSink != nil {
		fmt.Println(stallSink.Table(res.Stats.Cycles))
	}
	if latSink != nil && *latency {
		fmt.Println("per-transaction latency (cycles):")
		fmt.Print(latSink.Table())
	}
	if *showEn {
		fmt.Println("energy breakdown (pJ):")
		for _, c := range res.Energy.Components() {
			fmt.Printf("  %-10s %16.0f\n", c.Name, c.Value)
		}
		fmt.Printf("  %-10s %16.0f\n", "total", res.Energy.Total())
	}
	if *traceOut != "" {
		fmt.Printf("wrote timeline %s (open in ui.perfetto.dev)\n", *traceOut)
	}
	if *metricsOut != "" {
		fmt.Printf("wrote interval metrics %s (every %d cycles)\n", *metricsOut, *metricsInt)
	}
	if spanWriter != nil {
		fmt.Printf("wrote %d latency spans to %s\n", spanWriter.Completed(), *spansOut)
	}
	linger()

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}
