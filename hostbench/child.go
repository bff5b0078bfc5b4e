package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Child modes. A child runs one pass over the workload's matrix in a
// fresh process and prints one childResult as JSON.
const (
	modePlain  = "plain"  // the matrix through harness.Run, untraced
	modeTraced = "traced" // the matrix driven directly, with spans and a CPU profile
)

type cellOut struct {
	App   string  `json:"app"`
	Cfg   string  `json:"cfg"`
	WallS float64 `json:"wall_s"`
	Instr int64   `json:"instr"`
	Fault string  `json:"fault,omitempty"`
}

type childResult struct {
	// SetupS is host time from the parent starting this process to the
	// matrix being handed to the dispatcher.
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// WallS is host time from the first dispatch to the last cell's end.
	WallS     float64   `json:"wall_s"`
	Workers   int       `json:"workers"`
	Cells     []cellOut `json:"cells"`
	Digest    string    `json:"digest"`
	CheckErrs []string  `json:"check_errors"`
	// Layer holds the per-layer and model.* numbers of this pass; the
	// parent adds host_share.* from a traced pass's CPU profile.
	Layer map[string]float64 `json:"layer"`
}

// childMain runs one child pass and writes its result to stdout.
// startNS is the parent's wall clock just before it started the process.
func childMain(mode, wlName string, seed, startNS int64, artifacts string) error {
	w, err := lookupWorkload(wlName)
	if err != nil {
		return err
	}
	apps, cfgs, err := w.build(seed)
	if err != nil {
		return err
	}
	res := &childResult{Workers: runtime.NumCPU(), Layer: map[string]float64{}}
	res.SetupS = time.Since(time.Unix(0, startNS)).Seconds()
	var runs [][]*stats.Run
	switch mode {
	case modePlain:
		runs, err = plainPass(res, w, apps, cfgs)
	case modeTraced:
		runs, err = tracedPass(res, w, apps, cfgs, artifacts)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	// The checks run after the whole pass, never before:
	// App.Instructions walks WarpProgram and would fill the
	// memo the pass itself must fill.
	res.CheckErrs = checkOutputs(apps, w.configs, runs)
	res.Digest = digest(runs)
	modelLayer(res.Layer, runs)
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// plainPass runs the matrix the way the experiments do: harness.Run with
// one worker per CPU on the scaled device adapted per suite.
func plainPass(res *childResult, w workload, apps []workloads.App, cfgs []config.GPU) ([][]*stats.Run, error) {
	start := time.Now()
	hr, err := harness.Run(context.Background(), cfgs, w.configs, apps, harness.Options{
		Workers: res.Workers,
		Adapt:   exp.DeviceFor,
	})
	res.WallS = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	var cellSum float64
	for i, app := range apps {
		for j, tok := range w.configs {
			c := cellOut{App: app.Name, Cfg: tok, WallS: hr.Wall[i][j]}
			if f := hr.Errs[harness.Cell{App: i, Cfg: j}]; f != nil {
				c.Fault = f.Error()
			} else {
				c.Instr = hr.Runs[i][j].Instructions
			}
			cellSum += c.WallS
			res.Cells = append(res.Cells, c)
		}
	}
	res.Layer["harness.wall_s"] = res.WallS
	res.Layer["harness.cell_sum_s"] = cellSum
	res.Layer["harness.busy_frac"] = cellSum / (res.WallS * float64(min(res.Workers, len(res.Cells))))
	return hr.Runs, nil
}

// span is one timed call the benchmark made into the program. Spans of
// one cell share Cell; Parent is 0 for a cell's root span.
type span struct {
	Cell   int    `json:"cell"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog is one worker's span buffer; ids come from a counter shared by
// all workers of the pass.
type spanLog struct {
	origin time.Time
	ids    *atomic.Int64
	spans  []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.origin)) }

func (l *spanLog) add(cell int, id, parent int64, name string, start int64) {
	l.spans = append(l.spans, span{Cell: cell, ID: id, Parent: parent, Name: name, Start: start, End: l.now()})
}

// tracedApp copies app with every kernel's WarpProgram wrapped in a span
// whose parent is the RunKernel span *kernelSpan names at call time.
func tracedApp(app workloads.App, cell int, log *spanLog, kernelSpan *int64) workloads.App {
	cp := app
	cp.Kernels = make([]*gpu.Kernel, len(app.Kernels))
	for i, k := range app.Kernels {
		kc := *k
		inner := k.WarpProgram
		kc.WarpProgram = func(block, warp int) *program.Program {
			id, start := log.ids.Add(1), log.now()
			p := inner(block, warp)
			log.add(cell, id, *kernelSpan, "Kernel.WarpProgram", start)
			return p
		}
		cp.Kernels[i] = &kc
	}
	return cp
}

// tracedPass runs the same cells in the same order on the same number of
// workers as plainPass, but calls gpu directly so each public call gets a
// span, under a CPU profile that the parent reads to attribute host time
// to the layers gpu's cycle loop reaches.
func tracedPass(res *childResult, w workload, apps []workloads.App, cfgs []config.GPU, artifacts string) ([][]*stats.Run, error) {
	nc := len(cfgs)
	runs := make([][]*stats.Run, len(apps))
	for i := range runs {
		runs[i] = make([]*stats.Run, nc)
	}
	ff := make([]int64, len(apps)*nc)
	res.Cells = make([]cellOut, len(apps)*nc)
	workers := min(res.Workers, len(res.Cells))
	logs := make([]*spanLog, workers)
	var ids atomic.Int64

	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := range logs {
		logs[k] = &spanLog{origin: start, ids: &ids}
		wg.Add(1)
		go func(log *spanLog) {
			defer wg.Done()
			for cell := range jobs {
				i, j := cell/nc, cell%nc
				c := &res.Cells[cell]
				c.App, c.Cfg = apps[i].Name, w.configs[j]
				t0 := time.Now()
				run, ffc, err := tracedCell(cell, exp.DeviceFor(cfgs[j], apps[i]), apps[i], log)
				c.WallS = time.Since(t0).Seconds()
				if err != nil {
					c.Fault = err.Error()
					continue
				}
				runs[i][j], ff[cell], c.Instr = run, ffc, run.Instructions
			}
		}(logs[k])
	}
	for cell := range res.Cells {
		jobs <- cell
	}
	close(jobs)
	wg.Wait()
	res.WallS = time.Since(start).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)

	var spans []span
	for _, l := range logs {
		spans = append(spans, l.spans...)
	}
	if err := writeArtifacts(artifacts, prof.Bytes(), spans); err != nil {
		return nil, err
	}
	traceLayer(res.Layer, runs, ff, spans)
	res.Layer["gpu.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return runs, nil
}

// tracedCell is one cell of the traced pass: gpu.New, RunKernel per
// kernel, then the stats reads, each under a span of the cell's root span.
func tracedCell(cell int, cfg config.GPU, app workloads.App, log *spanLog) (run *stats.Run, ff int64, err error) {
	root, rootStart := log.ids.Add(1), log.now()
	defer log.add(cell, root, 0, "cell", rootStart)
	defer func() {
		if v := recover(); v != nil {
			run, err = nil, fmt.Errorf("panic: %v", v)
		}
	}()
	var kernelSpan int64
	app = tracedApp(app, cell, log, &kernelSpan)

	id, start := log.ids.Add(1), log.now()
	g, err := gpu.New(cfg)
	log.add(cell, id, root, "gpu.New", start)
	if err != nil {
		return nil, 0, err
	}
	for _, k := range app.Kernels {
		kernelSpan, start = log.ids.Add(1), log.now()
		err = g.RunKernel(k, 0)
		log.add(cell, kernelSpan, root, "gpu.RunKernel", start)
		if err != nil {
			return nil, 0, fmt.Errorf("%s on %s: %w", app.Name, cfg.Name, err)
		}
	}
	id, start = log.ids.Add(1), log.now()
	run, ff = g.Run(), g.FastForwardedCycles()
	log.add(cell, id, root, "stats", start)
	return run, ff, nil
}

// writeArtifacts keeps the traced pass's CPU profile (for go tool pprof)
// and its spans, one JSON object per line.
func writeArtifacts(prefix string, prof []byte, spans []span) error {
	if prefix == "" {
		return fmt.Errorf("traced pass needs -artifacts")
	}
	if err := os.WriteFile(prefix+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(prefix + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceLayer fills the per-layer numbers the traced pass alone measures,
// apart from the profile's.
func traceLayer(out map[string]float64, runs [][]*stats.Run, ff []int64, spans []span) {
	var calls, cycles, ffCycles int64
	var newNS, runNS, wpNS int64
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Name {
		case "gpu.New":
			newNS += d
		case "gpu.RunKernel":
			runNS += d
		case "Kernel.WarpProgram":
			wpNS += d
			calls++
		}
	}
	var stalls [stats.NumStallReasons]int64
	var reads, conflicts, fallbacks, l1Hits, l1Misses, shConflicts int64
	var cov float64
	var n int
	for i := range runs {
		for j, r := range runs[i] {
			if r == nil {
				continue
			}
			n++
			cycles += r.Cycles
			ffCycles += ff[i*len(runs[i])+j]
			cov += r.IssueCoV()
			reads += r.TotalRegReads()
			conflicts += r.TotalBankConflicts()
			for s := range stalls {
				stalls[s] += r.TotalStalls(stats.StallReason(s))
			}
			for _, sm := range r.SMs {
				fallbacks += sm.AssignFallbacks
				l1Hits += sm.L1Hits
				l1Misses += sm.L1Misses
				shConflicts += sm.SharedConflicts
			}
		}
	}
	for s := stats.StallNoWarp; s < stats.NumStallReasons; s++ {
		out["smcore.stall."+s.String()] = float64(stalls[s])
	}
	out["smcore.issue_cov"] = cov / float64(n)
	out["regfile.reads"] = float64(reads)
	out["regfile.bank_conflicts"] = float64(conflicts)
	out["regfile.conflicts_per_read"] = float64(conflicts) / float64(reads)
	out["core.assign_fallbacks"] = float64(fallbacks)
	out["mem.l1_hit_rate"] = float64(l1Hits) / float64(l1Hits+l1Misses)
	out["mem.l1_misses"] = float64(l1Misses)
	out["mem.shared_conflicts"] = float64(shConflicts)
	out["gpu.new_s"] = float64(newNS) / 1e9
	out["gpu.run_s"] = float64(runNS) / 1e9
	out["gpu.host_ns_per_cycle"] = float64(runNS) / float64(cycles)
	out["gpu.host_ns_per_ticked_cycle"] = float64(runNS) / float64(cycles-ffCycles)
	out["gpu.ff_cycle_frac"] = float64(ffCycles) / float64(cycles)
	out["workloads.warp_program_calls"] = float64(calls)
	out["workloads.warp_program_s"] = float64(wpNS) / 1e9
}

// modelLayer fills the simulated (model.*) totals over the completed
// cells. A host-speed change must leave every one of them unchanged.
func modelLayer(out map[string]float64, runs [][]*stats.Run) {
	var cycles, instr, occSum, occN int64
	var cpi stats.CPIStack
	for _, row := range runs {
		for _, r := range row {
			if r == nil {
				continue
			}
			cycles += r.Cycles
			instr += r.Instructions
			occSum += r.OccupancySum
			occN += r.OccupancySamples
			st := r.CPIStack()
			st.AddTo(&cpi)
		}
	}
	out["model.cycles"] = float64(cycles)
	out["model.ipc"] = float64(instr) / float64(cycles)
	out["model.occupancy"] = float64(occSum) / float64(occN)
	for c, v := range cpi {
		out["model.cpi."+stats.CPIComponent(c).String()+"_cycles"] = float64(v)
	}
}

// checkOutputs verifies every completed cell: its CPI stack sums to its
// cycles and it issued exactly its application's instruction count. The
// parent fails the run on a faulted cell (checkPasses).
func checkOutputs(apps []workloads.App, cfgNames []string, runs [][]*stats.Run) []string {
	var errs []string
	for i := range apps {
		want := apps[i].Instructions()
		for j, r := range runs[i] {
			if r == nil {
				continue
			}
			if err := r.CheckCPI(); err != nil {
				errs = append(errs, fmt.Sprintf("%s/%s: %v", apps[i].Name, cfgNames[j], err))
			}
			if r.Instructions != want {
				errs = append(errs, fmt.Sprintf("%s/%s: issued %d warp-instructions, app has %d",
					apps[i].Name, cfgNames[j], r.Instructions, want))
			}
		}
	}
	return errs
}

// digest hashes every cell's full simulated statistics in matrix order;
// a faulted cell hashes as null.
func digest(runs [][]*stats.Run) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, row := range runs {
		for _, r := range row {
			// Encoding plain structs of ints and slices cannot fail.
			_ = enc.Encode(r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
