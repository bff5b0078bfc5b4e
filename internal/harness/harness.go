// Package harness is the fault-tolerant execution layer for simulation
// sweeps: the paper's evaluation is a 112-application × multi-config
// matrix, and at that scale one simulator invariant panic, livelocked
// cell, or runaway kernel must not cost the whole campaign.
//
// Four pillars:
//
//  1. Panic isolation — every (application, configuration) cell runs
//     under recover(); a simulator panic becomes a structured *SimFault
//     carrying the cell identity, fault class, last heartbeat cycle and
//     stack, plus an optional flight-recorder dump (internal/trace) in
//     the diagnostics directory. The sweep reports faulted cells and
//     keeps going.
//  2. Cancellation and watchdog — a context plus per-cell wall-clock
//     timeout and a forward-progress watchdog reading the gpu.Monitor
//     heartbeat, so hung or livelocked cells die in wall-clock time
//     instead of burning out a cycle cap. Cells killed by the simulated
//     cycle cap get one bounded retry at a raised cap.
//  3. Checkpoint/resume — completed cells stream to an append-only JSONL
//     checkpoint; a resumed sweep skips them and re-runs only the
//     faulted/killed/missing cells (checkpoint.go). Cells are
//     sub-second, so a kill loses at most the cells in flight. The
//     runtime invariant auditor (config.AuditEvery) surfaces state
//     corruption as a structured FaultAudit instead of silent bad data.
//  4. Fault injection — a test-only Injector hook (inject.go) makes
//     chosen cells panic, hang, error, or corrupt their own state, so
//     chaos tests can prove all of the above end to end.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options configures a sweep execution.
type Options struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS, capped at the
	// cell count).
	Workers int
	// Timeout is the per-cell wall-clock budget (0 = unlimited).
	Timeout time.Duration
	// MaxCycles caps each kernel's simulated cycles
	// (0 = gpu.DefaultMaxCycles).
	MaxCycles int64
	// RetryFactor raises the cycle cap for the single retry of a
	// deadline-killed cell (0 = DefaultRetryFactor; negative disables
	// the retry).
	RetryFactor int64
	// WatchdogInterval is the forward-progress sampling period: a cell
	// whose heartbeat does not advance for two consecutive intervals is
	// killed (0 disables the watchdog).
	WatchdogInterval time.Duration
	// CheckpointPath streams completed cells to an append-only JSONL
	// file and, when the file already exists, resumes from it ("" =
	// no checkpointing).
	CheckpointPath string
	// DiagDir arms a per-cell flight recorder (internal/trace, SM 0) and
	// writes each fault's dump there ("" = no diagnostics; faulted cells
	// then carry stack and heartbeat only).
	DiagDir string
	// Adapt, when non-nil, derives the cell's device configuration from
	// the sweep configuration and the application (exp.DeviceFor's
	// per-suite memory scaling).
	Adapt func(cfg config.GPU, app workloads.App) config.GPU
	// Tracer attaches an externally owned tracer to single-cell runs
	// (RunOne); sweeps ignore it.
	Tracer *trace.Tracer
	// Injector is the test-only fault-injection hook.
	Injector InjectorFunc
	// Logf, when non-nil, receives one line per fault and per resume
	// summary (a sweep is otherwise silent).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives live sweep telemetry: per-cell
	// heartbeat gauges (a hung cell shows as a stalled
	// sweep_cell_heartbeat_cycle), completion/fault/retry/checkpoint
	// counters, aggregated CPI-stack cycles, and the devices' cycle and
	// instruction totals (nil = no telemetry, the guarded fast path).
	Metrics *metrics.Registry

	// sm carries the registered handles; built once per Run/RunOne from
	// Metrics, nil when telemetry is off.
	sm *sweepMetrics
}

// DefaultRetryFactor multiplies the cycle cap for the bounded retry of a
// deadline-killed cell.
const DefaultRetryFactor = 4

// watchdogStallIntervals is how many consecutive unchanged heartbeat
// samples the watchdog tolerates before killing a cell: two, so a cell
// is never killed on the sampling phase alone — it must hold one full
// interval with zero forward progress.
const watchdogStallIntervals = 2

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Result is the outcome of a sweep: the per-cell statistics, the faults,
// and the bookkeeping a caller needs to trust the matrix.
type Result struct {
	// Runs is the cell matrix, indexed [app][config]. A cell is nil iff
	// Errs records its fault — callers must consult Errs (or Complete)
	// before dereferencing.
	Runs [][]*stats.Run
	// Errs maps each faulted cell to its *SimFault.
	Errs CellErrors
	// Faults lists the faults in deterministic (app, config) order.
	Faults []*SimFault
	// Resumed counts cells restored from the checkpoint; Executed counts
	// cells actually simulated this run.
	Resumed, Executed int
	// Wall is the per-cell wall-clock simulation time in seconds,
	// indexed like Runs. Zero for resumed and faulted cells. Wall time
	// is the one nondeterministic cell datum — the bench baseline
	// (internal/bench) records it as informational throughput and
	// excludes it from regression comparison.
	Wall [][]float64
}

// Complete reports whether every cell has a run.
func (r *Result) Complete() bool { return len(r.Errs) == 0 }

// Run executes the (configs × apps) sweep under the harness. names
// labels the configurations for checkpoints, fault records and
// diagnostics files; nil falls back to each config's Name. The returned
// error covers harness-level failures (bad arguments, unreadable
// checkpoint, canceled context) — simulation failures never abort the
// sweep and are reported per cell in Result.Errs.
func Run(ctx context.Context, cfgs []config.GPU, names []string, apps []workloads.App, opt Options) (*Result, error) {
	if len(cfgs) == 0 || len(apps) == 0 {
		return nil, fmt.Errorf("harness: empty sweep (%d configs, %d apps)", len(cfgs), len(apps))
	}
	if names == nil {
		names = make([]string, len(cfgs))
		for i := range cfgs {
			names[i] = cfgs[i].Name
		}
	}
	if len(names) != len(cfgs) {
		return nil, fmt.Errorf("harness: %d config names for %d configs", len(names), len(cfgs))
	}
	res := &Result{
		Runs: make([][]*stats.Run, len(apps)),
		Wall: make([][]float64, len(apps)),
		Errs: CellErrors{},
	}
	for i := range res.Runs {
		res.Runs[i] = make([]*stats.Run, len(cfgs))
		res.Wall[i] = make([]float64, len(cfgs))
	}
	opt.sm = newSweepMetrics(opt.Metrics)

	// Checkpoint: restore completed cells, then append new ones.
	var ckpt *checkpointWriter
	if opt.CheckpointPath != "" {
		done, err := loadCheckpoint(opt.CheckpointPath)
		if err != nil {
			return nil, err
		}
		for i, app := range apps {
			for j := range cfgs {
				if run, ok := done[ckptKey(app.Name, names[j])]; ok {
					res.Runs[i][j] = run
					res.Resumed++
				}
			}
		}
		if res.Resumed > 0 {
			opt.logf("harness: resumed %d/%d cells from %s", res.Resumed, len(apps)*len(cfgs), opt.CheckpointPath)
		}
		ckpt, err = openCheckpoint(opt.CheckpointPath)
		if err != nil {
			return nil, err
		}
		defer ckpt.Close()
	}
	if opt.DiagDir != "" {
		if err := os.MkdirAll(opt.DiagDir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: diagnostics dir: %w", err)
		}
	}
	var cells []Cell
	for i := range apps {
		for j := range cfgs {
			if res.Runs[i][j] == nil {
				cells = append(cells, Cell{App: i, Cfg: j})
			}
		}
	}
	opt.sm.sweepShape(len(apps)*len(cfgs), res.Resumed)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}

	jobs := make(chan Cell)
	var mu sync.Mutex // guards res.Errs/Faults/Executed and ckptErr
	var ckptErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				cfg := cfgs[c.Cfg]
				if opt.Adapt != nil {
					cfg = opt.Adapt(cfg, apps[c.App])
				}
				run, wall, fault := runCell(ctx, cfg, apps[c.App], names[c.Cfg], opt)
				mu.Lock()
				res.Executed++
				if fault != nil {
					fault.App, fault.Config = apps[c.App].Name, names[c.Cfg]
					res.Errs[c] = fault
					res.Faults = append(res.Faults, fault)
					opt.logf("harness: FAULT %v", fault)
					mu.Unlock()
					continue
				}
				res.Runs[c.App][c.Cfg] = run
				res.Wall[c.App][c.Cfg] = wall
				mu.Unlock()
				if ckpt != nil {
					if err := ckpt.Write(apps[c.App].Name, names[c.Cfg], run); err != nil {
						mu.Lock()
						if ckptErr == nil {
							ckptErr = err
						}
						mu.Unlock()
					} else {
						opt.sm.checkpointWrote()
					}
				}
			}
		}()
	}
dispatch:
	for _, c := range cells {
		select {
		case jobs <- c:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	sortFaults(res.Faults)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("harness: sweep interrupted: %w", err)
	}
	if ckptErr != nil {
		return res, fmt.Errorf("harness: checkpoint write: %w", ckptErr)
	}
	return res, nil
}

// sortFaults orders faults by (app, config) so reports are deterministic
// regardless of worker scheduling.
func sortFaults(fs []*SimFault) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && faultLess(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func faultLess(a, b *SimFault) bool {
	if a.App != b.App {
		return a.App < b.App
	}
	return a.Config < b.Config
}

// RunOne executes a single (configuration, application) cell under the
// harness protections — panic isolation, timeout, watchdog, cycle cap —
// and returns either the run or its fault. Options.Tracer, when set, is
// attached to the device (the caller owns Close/export).
func RunOne(ctx context.Context, cfg config.GPU, app workloads.App, opt Options) (*stats.Run, *SimFault) {
	if opt.Adapt != nil {
		cfg = opt.Adapt(cfg, app)
	}
	opt.sm = newSweepMetrics(opt.Metrics)
	opt.sm.sweepShape(1, 0)
	run, _, fault := runCell(ctx, cfg, app, cfg.Name, opt)
	if fault != nil {
		fault.App, fault.Config = app.Name, cfg.Name
	}
	return run, fault
}

// runCell runs one cell, retrying once at a raised cycle cap if the
// first attempt died on the simulated-cycle deadline. It accounts the
// cell's terminal outcome (completion or fault, plus any retry) to the
// sweep metrics and returns the wall-clock seconds spent simulating.
func runCell(ctx context.Context, cfg config.GPU, app workloads.App, cfgName string, opt Options) (*stats.Run, float64, *SimFault) {
	maxCycles := opt.MaxCycles
	if maxCycles <= 0 {
		maxCycles = gpu.DefaultMaxCycles
	}
	//simlint:allow determinism -- wall-clock telemetry: per-cell runtime feeds the sweep's progress metrics, never simulated state or result tables
	start := time.Now()
	run, fault := runCellOnce(ctx, cfg, app, cfgName, opt, maxCycles)
	if fault != nil && fault.Kind == FaultDeadline && opt.RetryFactor >= 0 {
		factor := opt.RetryFactor
		if factor == 0 {
			factor = DefaultRetryFactor
		}
		opt.logf("harness: %s on %s hit the %d-cycle cap; retrying once at %d",
			app.Name, cfgName, maxCycles, maxCycles*factor)
		opt.sm.retried()
		run, fault = runCellOnce(ctx, cfg, app, cfgName, opt, maxCycles*factor)
		if fault != nil {
			fault.Retried = true
		}
	}
	//simlint:allow determinism -- wall-clock telemetry: per-cell runtime feeds the sweep's progress metrics, never simulated state or result tables
	wall := time.Since(start).Seconds()
	if fault != nil {
		opt.sm.cellFaulted(fault.Kind)
		return run, wall, fault
	}
	opt.sm.cellDone(run)
	return run, wall, nil
}

// runCellOnce is one supervised attempt at a cell.
func runCellOnce(ctx context.Context, cfg config.GPU, app workloads.App, cfgName string, opt Options, maxCycles int64) (run *stats.Run, fault *SimFault) {
	mon := &gpu.Monitor{}
	stop := supervise(ctx, mon, opt)
	defer stop()
	// Live progress: the heartbeat gauge reads this attempt's monitor at
	// scrape time (a retry re-points it at the fresh monitor).
	opt.sm.watchCell(app.Name, cfgName, mon)

	// Flight recorder: a small SM-0 ring whose tail is dumped on fault.
	tr := opt.Tracer
	if tr == nil && opt.DiagDir != "" {
		tr = trace.New(trace.Options{
			SMs:      cfg.NumSMs,
			SubCores: cfg.SubCoresPerSM,
			Banks:    cfg.BanksPerSubCore,
			SM:       0,
		})
	}

	// Panic isolation: a simulator invariant violation becomes a
	// structured fault with the cell's last heartbeat and the stack.
	defer func() {
		if v := recover(); v != nil {
			fault = &SimFault{
				Kind:       FaultPanic,
				Cycle:      mon.Cycle(),
				PanicValue: v,
				Stack:      debug.Stack(),
			}
			fault.DumpPath = writeDump(opt, app.Name, cfgName, fault, tr)
			run = nil
		}
	}()

	inj := InjectNone
	if opt.Injector != nil {
		inj = opt.Injector(app.Name, cfgName)
		switch inj {
		case InjectPanic:
			panic("harness: injected panic")
		case InjectError:
			return nil, &SimFault{Kind: FaultError, Err: ErrInjected}
		case InjectHang:
			// Spin without publishing progress until a supervisor kills
			// us — an injectable stand-in for a livelocked simulation.
			for !mon.Canceled() {
				select {
				case <-ctx.Done():
					mon.Cancel(reasonContext + ": " + ctx.Err().Error())
				case <-time.After(time.Millisecond):
				}
			}
			f := &SimFault{Kind: kindForReason(mon.Reason()), Err: errors.New(mon.Reason())}
			f.DumpPath = writeDump(opt, app.Name, cfgName, f, tr)
			return nil, f
		case InjectCorrupt:
			// The corruption is only observable through the auditor; arm it
			// at heartbeat cadence if the configuration left it off.
			if cfg.AuditEvery == 0 {
				cfg.AuditEvery = 1
			}
		}
	}

	g, err := gpu.New(cfg)
	if err != nil {
		return nil, &SimFault{Kind: FaultError, Err: err}
	}
	if inj == InjectCorrupt {
		g.ArmCorruptionForTest("scoreboard")
	}

	g.SetMonitor(mon)
	g.SetMetrics(opt.Metrics)
	if tr != nil {
		g.SetTracer(tr)
	}
	if runErr := g.RunKernels(app.Kernels, maxCycles); runErr != nil {
		f := &SimFault{Cycle: mon.Cycle(), Err: runErr}
		var cle *gpu.CycleLimitError
		var ce *gpu.CancelError
		var ae *gpu.AuditError
		switch {
		case errors.As(runErr, &cle):
			f.Kind = FaultDeadline
		case errors.As(runErr, &ce):
			f.Kind = kindForReason(ce.Reason)
			f.Cycle = ce.Cycle
		case errors.As(runErr, &ae):
			f.Kind = FaultAudit
			f.Cycle = ae.Cycle
		default:
			f.Kind = FaultError
		}
		f.DumpPath = writeDump(opt, app.Name, cfgName, f, tr)
		return nil, f
	}
	return g.Run(), nil
}

// Supervisor cancel-reason prefixes, mapped back to fault kinds.
const (
	reasonWatchdog = "watchdog"
	reasonTimeout  = "timeout"
	reasonContext  = "canceled"
)

func kindForReason(reason string) FaultKind {
	switch {
	case strings.HasPrefix(reason, reasonWatchdog):
		return FaultWatchdog
	case strings.HasPrefix(reason, reasonTimeout):
		return FaultTimeout
	default:
		return FaultCanceled
	}
}

// supervise starts the cell's supervisor: context cancellation, the
// wall-clock timeout, and the forward-progress watchdog all converge on
// mon.Cancel, which the simulation loop observes within one heartbeat
// period. The returned stop function must be called when the cell ends.
func supervise(ctx context.Context, mon *gpu.Monitor, opt Options) (stop func()) {
	if ctx.Done() == nil && opt.Timeout <= 0 && opt.WatchdogInterval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		var timeoutC <-chan time.Time
		if opt.Timeout > 0 {
			tm := time.NewTimer(opt.Timeout)
			defer tm.Stop()
			timeoutC = tm.C
		}
		var watchC <-chan time.Time
		if opt.WatchdogInterval > 0 {
			tk := time.NewTicker(opt.WatchdogInterval)
			defer tk.Stop()
			watchC = tk.C
		}
		last, stalls := mon.Cycle(), 0
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				mon.Cancel(reasonContext + ": " + ctx.Err().Error())
				return
			case <-timeoutC:
				mon.Cancel(fmt.Sprintf("%s: cell exceeded %v wall clock at cycle %d",
					reasonTimeout, opt.Timeout, mon.Cycle()))
				return
			case <-watchC:
				cur := mon.Cycle()
				if cur != last {
					last, stalls = cur, 0
					continue
				}
				stalls++
				if stalls >= watchdogStallIntervals {
					mon.Cancel(fmt.Sprintf("%s: no forward progress for %v (heartbeat stuck at cycle %d)",
						reasonWatchdog, time.Duration(stalls)*opt.WatchdogInterval, cur))
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// Guard runs fn with panic isolation: a panic surfaces as a *SimFault
// error labeled with name instead of crashing the process. Binaries use
// it to contain experiment drivers that do not go through a sweep.
func Guard(name string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &SimFault{
				App:        name,
				Kind:       FaultPanic,
				PanicValue: v,
				Stack:      debug.Stack(),
			}
		}
	}()
	return fn()
}

// writeDump writes the fault's diagnostics: a <app>__<config>.fault.json
// with the structured fault record, and — when a flight recorder was
// armed — a Perfetto-loadable <app>__<config>.trace.json holding the
// recorder's tail. Returns the fault file path, "" if diagnostics are
// disabled or unwritable (a dump failure must not mask the fault).
func writeDump(opt Options, app, cfgName string, f *SimFault, tr *trace.Tracer) string {
	if opt.DiagDir == "" {
		return ""
	}
	base := filepath.Join(opt.DiagDir, sanitize(app)+"__"+sanitize(cfgName))
	if tr != nil {
		if tf, err := os.Create(base + ".trace.json"); err == nil {
			werr := trace.WriteChrome(tf, tr)
			cerr := tf.Close()
			if werr != nil || cerr != nil {
				os.Remove(base + ".trace.json")
			}
		}
	}
	path := base + ".fault.json"
	df, err := os.Create(path)
	if err != nil {
		opt.logf("harness: cannot write diagnostics for %s on %s: %v", app, cfgName, err)
		return ""
	}
	defer df.Close()
	rec := struct {
		App        string `json:"app"`
		Config     string `json:"config"`
		Kind       string `json:"kind"`
		Cycle      int64  `json:"cycle"`
		Error      string `json:"error,omitempty"`
		PanicValue string `json:"panic,omitempty"`
		Stack      string `json:"stack,omitempty"`
		Trace      string `json:"trace,omitempty"`
		Retried    bool   `json:"retried,omitempty"`
	}{
		App:     app,
		Config:  cfgName,
		Kind:    f.Kind.String(),
		Cycle:   f.Cycle,
		Retried: f.Retried,
	}
	if f.Err != nil {
		rec.Error = f.Err.Error()
	}
	if f.PanicValue != nil {
		rec.PanicValue = fmt.Sprint(f.PanicValue)
	}
	if len(f.Stack) > 0 {
		rec.Stack = string(f.Stack)
	}
	if tr != nil {
		rec.Trace = base + ".trace.json"
	}
	enc := json.NewEncoder(df)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		opt.logf("harness: cannot encode diagnostics for %s on %s: %v", app, cfgName, err)
		os.Remove(path)
		return ""
	}
	return path
}

// sanitize makes a cell label filesystem-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ', '*', '?', '"', '<', '>', '|':
			return '-'
		}
		return r
	}, s)
}
