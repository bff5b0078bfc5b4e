// Command sweep runs a custom (configuration x application) matrix and
// prints a CSV of cycles, IPC, bank conflicts, and issue CoV — the
// building block for studies beyond the paper's figures.
//
// Usage:
//
//	sweep -apps pb-mriq,rod-srad -configs gto,rba,fc
//	sweep -suite cugraph -configs gto,rba,srr,shuffle,fc -sms 4
//	sweep -sensitive -configs gto,rba > rba_study.csv
//	sweep -apps pb-mriq,pb-sgemm -configs gto -profile -   # simulator profile (JSON)
//	sweep -sensitive -checkpoint run.ckpt -diag diag/      # fault-tolerant campaign
//
// Config tokens: gto (baseline), lrr, rba, srr, shuffle, rba+shuffle,
// rba+srr, fc, fc+rba, steal, Ncu (e.g. 4cu), Nbank (e.g. 4bank).
//
// The matrix executes on the fault-tolerant harness (internal/harness,
// docs/ROBUSTNESS.md): cells run in parallel under panic isolation, a
// per-cell wall-clock -timeout, a simulated-cycle cap (-max-cycles), and
// a forward-progress watchdog (-watchdog). A faulted cell is reported on
// stderr — with a flight-recorder dump under -diag when set — and the
// remaining cells keep running; the exit status is 1 if any cell
// faulted. With -checkpoint, completed cells stream to an append-only
// JSONL file and a re-run with the same flags resumes, re-running only
// the missing/faulted cells. Interrupting with Ctrl-C or SIGTERM
// checkpoints cleanly. -audit N arms the runtime invariant auditor
// every N cycles; a corrupted simulation dies as a structured audit
// fault instead of producing silently wrong numbers.
//
// With -profile the sweep runs serially and emits a machine-readable
// simulator-performance report instead of the CSV: per-app wall-clock,
// simulated cycles/sec and instructions/sec, and heap allocations — the
// baseline future performance work diffs against.
//
// With -metrics-addr the sweep serves live telemetry over HTTP for its
// duration (docs/OBSERVABILITY.md): `curl $addr/metrics` returns
// Prometheus-format counters and gauges — per-cell heartbeat progress,
// faults by kind, the aggregated CPI stack — and /debug/vars the same
// as JSON. With -bench-out the completed matrix is also written as a
// BENCH_<date>.json performance baseline for cmd/benchdiff.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

func main() {
	var (
		appsFlag  = flag.String("apps", "", "comma-separated application names")
		suite     = flag.String("suite", "", "run a whole suite")
		sensitive = flag.Bool("sensitive", false, "run the Table III sensitive subset")
		cfgsFlag  = flag.String("configs", "gto,rba", "comma-separated config tokens")
		sms       = flag.Int("sms", 4, "number of SMs")
		profile   = flag.String("profile", "", "write a simulator-performance JSON report to this file ('-' = stdout) instead of the CSV")
		timeout   = flag.Duration("timeout", 0, "per-cell wall-clock budget (0 = unlimited)")
		maxCycles = flag.Int64("max-cycles", 0, "per-kernel simulated-cycle cap (0 = simulator default)")
		watchdog  = flag.Duration("watchdog", time.Second, "forward-progress watchdog interval (0 = disabled)")
		workers   = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		ckpt      = flag.String("checkpoint", "", "append completed cells to this JSONL file and resume from it")
		diag      = flag.String("diag", "", "write flight-recorder dumps for faulted cells to this directory")
		metricsAt = flag.String("metrics-addr", "", "serve live telemetry on this address (e.g. 127.0.0.1:9090; empty = off)")
		benchOut  = flag.String("bench-out", "", "write the completed matrix as a performance baseline JSON (for benchdiff)")
		noFF      = flag.Bool("no-fastforward", false, "disable the idle-cycle fast-forward (debugging escape hatch; results are identical, only slower)")
		auditEv   = flag.Int64("audit", 0, "run the runtime invariant auditor every N simulated cycles; violations fault the cell as a structured audit fault (0 = off)")
	)
	flag.Parse()

	apps, err := selectApps(*appsFlag, *suite, *sensitive)
	if err != nil {
		fatal(err)
	}
	var cfgs []repro.Config
	var names []string
	for _, tok := range strings.Split(*cfgsFlag, ",") {
		tok = strings.TrimSpace(tok)
		c, err := parseConfig(tok, *sms)
		if err != nil {
			fatal(err)
		}
		if *noFF {
			c = c.WithNoFastForward()
		}
		if *auditEv > 0 {
			c = c.WithAudit(*auditEv)
		}
		cfgs = append(cfgs, c)
		names = append(names, tok)
	}

	if *profile != "" {
		rep, err := bench.Profile(cfgs, names, apps)
		if err != nil {
			fatal(err)
		}
		out := os.Stdout
		if *profile != "-" {
			f, err := os.Create(*profile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			fatal(err)
		}
		return
	}

	// Ctrl-C and SIGTERM cancel the sweep gracefully: completed cells are
	// already in the checkpoint, and a re-run with the same -checkpoint
	// re-simulates only the cells that were in flight.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Live telemetry: counters/gauges scrapeable for the sweep's
	// duration; a hung cell shows as a stalled heartbeat gauge.
	var reg *metrics.Registry
	if *metricsAt != "" {
		reg = metrics.New()
		srv, err := metrics.Serve(*metricsAt, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "sweep: telemetry at http://%s/metrics\n", srv.Addr())
	}

	res, err := harness.Run(ctx, cfgs, names, apps, harness.Options{
		Workers:          *workers,
		Timeout:          *timeout,
		MaxCycles:        *maxCycles,
		WatchdogInterval: *watchdog,
		CheckpointPath:   *ckpt,
		DiagDir:          *diag,
		Metrics:          reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	if *benchOut != "" {
		b := bench.FromResult(res, apps, names, time.Now().UTC().Format(time.RFC3339))
		if err := b.WriteFile(*benchOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %d-cell baseline to %s\n", len(b.Cells), *benchOut)
	}

	fmt.Print("app,config,cycles,instructions,ipc,bank_conflicts,issue_cov\n")
	for i, app := range apps {
		for j := range cfgs {
			r := res.Runs[i][j]
			if r == nil {
				continue // faulted; reported via Logf and the summary
			}
			fmt.Printf("%s,%s,%d,%d,%.4f,%d,%.4f\n",
				app.Name, names[j], r.Cycles, r.Instructions, r.IPC(),
				r.TotalBankConflicts(), r.IssueCoV())
		}
	}
	if !res.Complete() {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d cells faulted (%d completed", len(res.Faults),
			len(apps)*len(cfgs), len(apps)*len(cfgs)-len(res.Faults))
		if *ckpt != "" {
			fmt.Fprintf(os.Stderr, "; rerun with -checkpoint %s to retry only the faulted cells", *ckpt)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(1)
	}
}

func selectApps(list, suite string, sensitive bool) ([]repro.App, error) {
	switch {
	case list != "":
		var out []repro.App
		for _, name := range strings.Split(list, ",") {
			a, err := repro.AppByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	case suite != "":
		out, err := repro.AppsBySuite(suite)
		if err != nil {
			return nil, err
		}
		if len(out) == 0 {
			suites, serr := workloads.Suites()
			if serr != nil {
				return nil, serr
			}
			return nil, fmt.Errorf("unknown suite %q (have %v)", suite, suites)
		}
		return out, nil
	case sensitive:
		return repro.SensitiveWorkloads()
	default:
		return repro.Workloads()
	}
}

func parseConfig(tok string, sms int) (repro.Config, error) {
	base := repro.VoltaV100().WithSMs(sms)
	switch tok {
	case "gto", "base", "":
		return base, nil
	case "lrr":
		return base.WithScheduler(repro.SchedLRR), nil
	case "rba":
		return base.WithScheduler(repro.SchedRBA), nil
	case "srr":
		return base.WithAssign(repro.AssignSRR), nil
	case "shuffle":
		return base.WithAssign(repro.AssignShuffle), nil
	case "rba+shuffle", "shuffle+rba":
		return base.WithScheduler(repro.SchedRBA).WithAssign(repro.AssignShuffle), nil
	case "rba+srr", "srr+rba":
		return base.WithScheduler(repro.SchedRBA).WithAssign(repro.AssignSRR), nil
	case "fc":
		return repro.FullyConnected().WithSMs(sms), nil
	case "fc+rba":
		return repro.FullyConnected().WithSMs(sms).WithScheduler(repro.SchedRBA), nil
	case "steal":
		return base.WithBankStealing(), nil
	}
	if n, ok := strings.CutSuffix(tok, "cu"); ok {
		v, err := strconv.Atoi(n)
		if err == nil && v > 0 {
			return base.WithCUs(v), nil
		}
	}
	if n, ok := strings.CutSuffix(tok, "bank"); ok {
		v, err := strconv.Atoi(n)
		if err == nil && v > 0 {
			return base.WithBanks(v), nil
		}
	}
	return repro.Config{}, fmt.Errorf("unknown config token %q", tok)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
