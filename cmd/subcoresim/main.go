// Command subcoresim runs one benchmark application on one GPU
// configuration and prints its statistics: cycles, IPC, per-sub-core
// issue balance, stall breakdown, bank conflicts, and cache behaviour.
//
// Usage:
//
//	subcoresim -app pb-mriq
//	subcoresim -app tpcU-q8 -assign srr -sms 20
//	subcoresim -app rod-srad -sched rba -cus 4
//	subcoresim -app pb-mriq -chrome-trace out.json   # open in ui.perfetto.dev
//	subcoresim -app pb-mriq -json > run.json         # full stats for scripting
//	subcoresim -list
//
// Observability (internal/trace): -chrome-trace records SM 0's structured
// event stream (issue, stalls, bank grants, LSU, writebacks, block
// lifecycle) plus sampled counters and exports Chrome trace-event JSON;
// -trace and -timeline print terminal sparklines from the same sampled
// counter series. -metrics-addr serves live telemetry over HTTP for the
// run's duration (`curl $addr/metrics`, docs/OBSERVABILITY.md): cycle
// and instruction counters updated at the monitor heartbeat, so a hung
// run shows as a stalled gauge. The text report ends with the top-down
// CPI stack (internal/stats): every sub-core cycle attributed to
// exactly one cause.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		appName  = flag.String("app", "pb-mriq", "application name (see -list)")
		list     = flag.Bool("list", false, "list applications and exit")
		fc       = flag.Bool("fc", false, "use the fully-connected SM model")
		sched    = flag.String("sched", "gto", "warp scheduler: gto, lrr, rba")
		assign   = flag.String("assign", "rr", "sub-core assignment: rr, srr, shuffle")
		sms      = flag.Int("sms", 4, "number of SMs")
		cus      = flag.Int("cus", 0, "collector units per sub-core (0 = default)")
		banks    = flag.Int("banks", 0, "register banks per sub-core (0 = default)")
		steal    = flag.Bool("steal", false, "enable register bank stealing")
		rbaLat   = flag.Int("rba-latency", 0, "RBA score-update latency in cycles")
		trc      = flag.Bool("trace", false, "trace register-file reads/cycle on SM 0 and print a sparkline")
		timeline = flag.Bool("timeline", false, "print per-sub-core issue timelines for SM 0 (imbalance view)")
		chrome   = flag.String("chrome-trace", "", "write SM 0's event stream as Chrome trace-event JSON to this file")
		jsonOut  = flag.Bool("json", false, "dump the full run statistics as JSON instead of the text report")
		sample   = flag.Int("sample", 0, "counter sampling period in cycles (0 = per flag defaults)")
		ringCap  = flag.Int("ring", 0, "event ring capacity for -chrome-trace (0 = default; ring keeps the last N events)")
		cfgFile  = flag.String("config-file", "", "JSON file of configuration overrides (base: VoltaV100)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited)")
		maxCyc   = flag.Int64("max-cycles", 0, "per-kernel simulated-cycle cap (0 = simulator default)")
		metAddr  = flag.String("metrics-addr", "", "serve live telemetry on this address (e.g. 127.0.0.1:9090; empty = off)")
		noFF     = flag.Bool("no-fastforward", false, "disable the idle-cycle fast-forward (debugging escape hatch; results are identical, only slower)")
		auditEv  = flag.Int64("audit", 0, "run the runtime invariant auditor every N simulated cycles; violations fault the run as a structured audit fault (0 = off)")
	)
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "name\tsuite\tsensitive\tkernels\tinstructions")
		apps, err := repro.Workloads()
		if err != nil {
			fatal(err)
		}
		for _, a := range apps {
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d\n", a.Name, a.Suite, a.Sensitive, len(a.Kernels), a.Instructions())
		}
		w.Flush()
		return
	}

	app, err := repro.AppByName(*appName)
	if err != nil {
		fatal(err)
	}

	cfg := repro.VoltaV100()
	if *fc {
		cfg = repro.FullyConnected()
	}
	if *cfgFile != "" {
		f, err := os.Open(*cfgFile)
		if err != nil {
			fatal(err)
		}
		cfg, err = config.FromJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	cfg = cfg.WithSMs(*sms)
	switch *sched {
	case "gto":
	case "lrr":
		cfg = cfg.WithScheduler(repro.SchedLRR)
	case "rba":
		cfg = cfg.WithScheduler(repro.SchedRBA)
	default:
		fatal(fmt.Errorf("unknown scheduler %q", *sched))
	}
	switch *assign {
	case "rr":
	case "srr":
		cfg = cfg.WithAssign(repro.AssignSRR)
	case "shuffle":
		cfg = cfg.WithAssign(repro.AssignShuffle)
	default:
		fatal(fmt.Errorf("unknown assignment %q", *assign))
	}
	if *cus > 0 {
		cfg = cfg.WithCUs(*cus)
	}
	if *banks > 0 {
		cfg = cfg.WithBanks(*banks)
	}
	if *steal {
		cfg = cfg.WithBankStealing()
	}
	if *noFF {
		cfg = cfg.WithNoFastForward()
	}
	if *auditEv > 0 {
		cfg = cfg.WithAudit(*auditEv)
	}
	cfg.RBAScoreLatency = *rbaLat

	// The sampled counter time-series (internal/trace) drives -trace,
	// -timeline, and the counter tracks of -chrome-trace. -trace needs
	// per-cycle resolution; the timeline and Perfetto views default to
	// the historical 32-cycle bucket.
	needTracer := *trc || *timeline || *chrome != ""
	period := *sample
	if period <= 0 && needTracer {
		if *trc {
			period = 1
		} else {
			period = 32
		}
	}
	if needTracer {
		cfg.TraceSamplePeriod = period
		if *ringCap > 0 {
			cfg.TraceRingCap = *ringCap
		}
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	// The run executes under the fault-tolerant harness: -timeout kills a
	// wall-clock overrun, -max-cycles caps simulated cycles (with one
	// retry at a raised cap), and a watchdog kills a livelocked model; a
	// simulator panic is reported as a structured fault instead of a
	// crash (docs/ROBUSTNESS.md).
	ctx, cancelRun := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelRun()
	hopt := harness.Options{
		Timeout:          *timeout,
		MaxCycles:        *maxCyc,
		WatchdogInterval: time.Second,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	var tr *trace.Tracer
	if needTracer {
		tr = trace.New(trace.OptionsFor(&cfg, 0))
		hopt.Tracer = tr
	}
	if *metAddr != "" {
		reg := metrics.New()
		srv, err := metrics.Serve(*metAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		hopt.Metrics = reg
		fmt.Fprintf(os.Stderr, "subcoresim: telemetry at http://%s/metrics\n", srv.Addr())
	}
	r, fault := harness.RunOne(ctx, cfg, app, hopt)
	if needTracer {
		if err := tr.Close(); err != nil {
			fatal(err)
		}
	}
	if fault != nil {
		fatal(fault)
	}

	if *jsonOut {
		if err := exp.WriteRunJSON(os.Stdout, app.Name, cfg.Name, r); err != nil {
			fatal(err)
		}
	} else {
		report(cfg.Name, app.Name, r)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChrome(f, tr); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n", *chrome)
		}
	}

	c := tr.Counters()
	if *trc && c != nil {
		vals := make([]float64, c.Samples())
		for i, v := range c.RFReads {
			// Each granted read is warp-wide: scale to 4-byte register
			// reads per cycle (Fig 14's unit) and normalize by the period.
			vals[i] = float64(v) * float64(cfg.WarpSize) / float64(c.Period)
		}
		fmt.Println("\nSM0 register reads per cycle (Fig 14 style):")
		fmt.Println(plot.Series(appNameShort(*appName), vals, 100))
	}
	if *timeline && c != nil {
		// Aggregate samples into display buckets of >= 32 cycles so the
		// sparkline stays comparable across sampling periods.
		bucket := 1
		if c.Period < 32 {
			bucket = (32 + c.Period - 1) / c.Period
		}
		fmt.Printf("\nSM0 per-sub-core instructions issued (buckets of %d cycles):\n", bucket*c.Period)
		for sc, series := range c.IssueBySub {
			vals := make([]float64, 0, len(series)/bucket+1)
			for i := 0; i < len(series); i += bucket {
				var s float64
				for j := i; j < i+bucket && j < len(series); j++ {
					s += float64(series[j])
				}
				vals = append(vals, s)
			}
			fmt.Println(plot.Series(fmt.Sprintf("sub-core %d", sc), vals, 100))
		}
	}
}

func appNameShort(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}

func report(cfgName, appName string, r *repro.Result) {
	fmt.Printf("app:            %s\n", appName)
	fmt.Printf("config:         %s\n", cfgName)
	fmt.Printf("cycles:         %d\n", r.Cycles)
	fmt.Printf("instructions:   %d\n", r.Instructions)
	fmt.Printf("IPC:            %.3f\n", r.IPC())
	fmt.Printf("issue CoV:      %.3f (per-sub-core imbalance, Fig 17 metric)\n", r.IssueCoV())
	fmt.Printf("bank conflicts: %d (%.3f per read)\n", r.TotalBankConflicts(),
		safeDiv(r.TotalBankConflicts(), r.TotalRegReads()))
	fmt.Println("stalls (sub-core cycles):")
	for reason := stats.StallReason(1); reason < stats.NumStallReasons; reason++ {
		fmt.Printf("  %-12s %d\n", reason, r.TotalStalls(reason))
	}
	var hits, misses int64
	for i := range r.SMs {
		hits += r.SMs[i].L1Hits
		misses += r.SMs[i].L1Misses
	}
	if hits+misses > 0 {
		fmt.Printf("L1 hit rate:    %.3f\n", float64(hits)/float64(hits+misses))
	}
	st := r.CPIStack()
	shares := st.Shares()
	fmt.Println("CPI stack (top-down, every sub-core cycle attributed once):")
	for c := stats.CPIComponent(0); c < stats.NumCPIComponents; c++ {
		fmt.Printf("  %-14s %12d  %5.1f%%\n", c, st[c], shares[c]*100)
	}
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "subcoresim:", err)
	os.Exit(1)
}
