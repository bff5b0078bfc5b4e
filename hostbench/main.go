// Command hostbench is the simulator's host-throughput benchmark. It
// runs one workload, a fixed (apps × configs) matrix, in fresh child
// processes and prints every metric by name with its unit, ending with
// one JSON line:
//
//	hostbench -workload rf-bound -seed 1 -seconds 35 -trace 0
//
// With -trace 0 the children run the matrix through harness.Run, untraced,
// as many times as fit in -seconds, and the JSON carries the end-to-end
// metrics. With -trace 1 a traced child runs the same cells between two
// untraced ones, and the JSON carries the per-layer metrics. Every
// completed cell is checked after its pass; a failed check makes the exit
// status 1. Build and run it from the repository root with
// hostbench/run.sh; README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

const (
	// maxCrashes bounds how many children in a row may crash before a
	// run gives up on producing a result.
	maxCrashes = 5
	// hardLimit bounds a whole run, children included.
	hardLimit = 170 * time.Second
	// startEnv carries the parent's clock reading at child start.
	startEnv = "HOSTBENCH_START_NS"
)

// referenceDigests maps "<workload>/<seed>" to the digest of the model
// statistics the parent commit produced, so a changed digest is reported.
//
//go:embed digests.json
var referenceDigests []byte

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		fs := flag.NewFlagSet("child", flag.ExitOnError)
		mode := fs.String("mode", modePlain, "plain or traced")
		wl := fs.String("workload", "", "workload name")
		seed := fs.Int64("seed", 1, "config.Seed")
		artifacts := fs.String("artifacts", "", "path prefix for the traced pass's profile and spans")
		fs.Parse(os.Args[2:])
		startNS, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64)
		if err == nil {
			err = childMain(*mode, *wl, *seed, startNS, *artifacts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench child:", err)
			os.Exit(1)
		}
		return
	}
	wl := flag.String("workload", "", "workload: rf-bound, tpch-imbalance or mem-latency")
	seed := flag.Int64("seed", 1, "config.Seed of every cell (the shuffle tables)")
	seconds := flag.Int("seconds", 35, "measure for this many seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository checkout the benchmark was built from")
	flag.Parse()
	code, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// childOutcome is what a parent learns from one child: its result, or
// the line that explains why it died.
type childOutcome struct {
	res   *childResult
	fatal string
	dur   time.Duration
}

// runChild runs one child to completion. Any exit other than a clean one
// with a parseable result is a crash; fatal then holds the runtime's
// fatal line (or the last line the child printed).
func runChild(ctx context.Context, argv []string) childOutcome {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", startEnv, start.UnixNano()))
	err := cmd.Run()
	out := childOutcome{dur: time.Since(start)}
	if err == nil {
		var res childResult
		if err = json.Unmarshal(lastLine(stdout.Bytes()), &res); err == nil {
			out.res = &res
			return out
		}
	}
	out.fatal = fatalLine(stderr.String())
	if out.fatal == "" {
		out.fatal = err.Error()
	}
	return out
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// fatalLine picks the line that names why a child died: the Go runtime's
// "fatal error:" line, else a "panic:" line, else the last line.
func fatalLine(stderr string) string {
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for _, prefix := range []string{"fatal error:", "panic:"} {
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
	}
	return lines[len(lines)-1]
}

// tally counts cells over a run's passes: a crashed child loses every
// cell of its pass, a completed one only its faulted cells.
func tally(outs []childOutcome, cellsPerPass int) (attempted, failed int) {
	for _, o := range outs {
		attempted += cellsPerPass
		if o.res == nil {
			failed += cellsPerPass
			continue
		}
		for _, c := range o.res.Cells {
			if c.Fault != "" {
				failed++
			}
		}
	}
	return attempted, failed
}

// runner starts the children of one benchmark run.
type runner struct {
	self      string
	wl        workload
	seed      int64
	artifacts string
	outs      []childOutcome // every pass child, crashed or not
}

func (r *runner) child(ctx context.Context, mode string) childOutcome {
	argv := []string{r.self, "child", "-mode", mode, "-workload", r.wl.name,
		"-seed", strconv.FormatInt(r.seed, 10)}
	if mode == modeTraced {
		argv = append(argv, "-artifacts", r.artifacts)
	}
	o := runChild(ctx, argv)
	if o.res == nil {
		fmt.Fprintf(os.Stderr, "hostbench: %s child crashed after %.1fs: %s\n", mode, o.dur.Seconds(), o.fatal)
	}
	return o
}

// pass runs one pass child, then more after crashes until one completes.
// Every child counts toward the run's cells.
func (r *runner) pass(ctx context.Context, mode string) (*childResult, error) {
	for crashes := 0; crashes < maxCrashes; crashes++ {
		o := r.child(ctx, mode)
		r.outs = append(r.outs, o)
		if o.res != nil {
			return o.res, nil
		}
	}
	return nil, fmt.Errorf("%d %s children in a row crashed", maxCrashes, mode)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run(wlName string, seed int64, budget time.Duration, trace int, root string) (int, error) {
	wl, err := lookupWorkload(wlName)
	if err != nil {
		return 0, err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	outDir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", wl.name, seed, trace)
	prov, err := provenance(root, seed)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	r := &runner{self: self, wl: wl, seed: seed, artifacts: filepath.Join(outDir, tag)}

	var metrics map[string]metricOut
	var passes []*childResult
	var notes []string
	if trace == 1 {
		metrics, passes, err = r.traced(ctx)
	} else {
		var note string
		metrics, passes, note, err = r.untraced(ctx, budget)
		notes = append(notes, note)
	}
	if err != nil {
		return 0, err
	}

	problems := checkPasses(passes)
	attempted, failed := tally(r.outs, wl.numCells())
	var crashes []string
	for _, o := range r.outs {
		if o.res == nil {
			crashes = append(crashes, o.fatal)
		}
	}
	prov["load1_end"] = loadAvg()
	prov["host_loop_ms_end"] = hostLoopMS()
	if d := prov["host_loop_ms_end"].(float64)/prov["host_loop_ms_start"].(float64) - 1; d > hostDrift || d < -hostDrift {
		notes = append(notes, fmt.Sprintf("host speed changed during the run: fixed-work loop took %.1f ms at start, %.1f ms at end",
			prov["host_loop_ms_start"], prov["host_loop_ms_end"]))
	}
	notes = append(notes,
		fmt.Sprintf("failed_cell_frac %.4f (%d of %d cells; %d crashed children)", float64(failed)/float64(attempted), failed, attempted, len(crashes)),
		digestNote(wl.name, seed, passes[0].Digest))

	// Human-readable lines first; the result is the last line.
	fmt.Printf("hostbench %s seed=%d trace=%d passes=%d\n", wl.name, seed, trace, len(passes))
	pj, err := json.Marshal(prov)
	if err != nil {
		return 0, err
	}
	fmt.Printf("provenance %s\n", pj)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	for _, c := range crashes {
		fmt.Println("crash:", c)
	}
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	line := resultLine{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	record, err := json.MarshalIndent(map[string]any{"result": line, "provenance": prov, "notes": notes,
		"crashes": crashes, "problems": problems, "passes": passes}, "", " ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-%d.json", tag, time.Now().Unix())), record, 0o644); err != nil {
		return 0, err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

// checkPasses lists every output-check violation of a run's completed
// passes: a cell check the child failed, a faulted cell, or model
// statistics that differ between passes. Crashed children are not
// passes; their cells count only as failed.
func checkPasses(passes []*childResult) []string {
	var problems []string
	for _, p := range passes {
		for _, e := range p.CheckErrs {
			problems = append(problems, "output check: "+e)
		}
		for _, c := range p.Cells {
			if c.Fault != "" {
				problems = append(problems, fmt.Sprintf("output check: %s/%s: fault: %s", c.App, c.Cfg, c.Fault))
			}
		}
		if p.Digest != passes[0].Digest {
			problems = append(problems, fmt.Sprintf("model statistics differ between passes of one run: digest %s vs %s", p.Digest, passes[0].Digest))
		}
	}
	return problems
}

// traced runs a traced pass between two untraced ones and returns the
// per-layer metrics. Bracketing the traced pass keeps drift in the host's
// speed out of trace_overhead_frac.
func (r *runner) traced(ctx context.Context) (map[string]metricOut, []*childResult, error) {
	var passes []*childResult
	for _, mode := range []string{modePlain, modeTraced, modePlain} {
		p, err := r.pass(ctx, mode)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
	}
	before, tr, after := passes[0], passes[1], passes[2]
	layer := tr.Layer
	for k, v := range before.Layer {
		if strings.HasPrefix(k, "harness.") {
			layer[k] = v
		}
	}
	shares, cpuNS, err := hostShares(ctx, r.artifacts+".cpu.pprof")
	if err != nil {
		return nil, nil, err
	}
	for _, l := range shareLayers {
		layer["host_share."+l] = shares[l]
	}
	var instr int64
	for _, c := range tr.Cells {
		instr += c.Instr
	}
	layer["smcore.host_ns_per_instr"] = float64(cpuNS) * shares["smcore"] / float64(instr)
	layer["trace_overhead_frac"] = tr.WallS/((before.WallS+after.WallS)/2) - 1
	metrics := map[string]metricOut{}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("traced run did not measure %s", m.name)
		}
		metrics[m.name] = metricOut{v, m.unit}
	}
	return metrics, passes, nil
}

// untraced runs passes until the next one would end after budget and
// returns the end-to-end metrics; setup_s is the median set-up time of
// the pass children.
func (r *runner) untraced(ctx context.Context, budget time.Duration) (map[string]metricOut, []*childResult, string, error) {
	var passes []*childResult
	var setups []float64
	start := time.Now()
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		res, err := r.pass(ctx, modePlain)
		if err != nil {
			return nil, nil, "", err
		}
		passes = append(passes, res)
		setups = append(setups, res.SetupS)
		last = time.Since(t)
	}
	metrics, note := endToEndMetrics(passes, setups)
	return metrics, passes, note, nil
}

// endToEndMetrics aggregates a -trace 0 run's passes. Every pass runs
// the same cells, so the rate is the passes' instructions over their
// wall time, and the cell times of all passes are pooled.
func endToEndMetrics(passes []*childResult, setups []float64) (map[string]metricOut, string) {
	var instr int64
	var wall float64
	var rss, cells []float64
	for _, p := range passes {
		for _, c := range p.Cells {
			if c.Fault == "" {
				instr += c.Instr
				cells = append(cells, c.WallS)
			}
		}
		wall += p.WallS
		rss = append(rss, p.PeakRSSMB)
	}
	q := tailPercentile(len(cells))
	vals := map[string]float64{
		"sim_instr_per_s": float64(instr) / wall,
		"cell_s_p50":      median(cells),
		"cell_s_tail":     stats.Percentile(cells, float64(q)),
		"setup_s":         median(setups),
		"peak_rss_mb":     median(rss),
	}
	out := map[string]metricOut{}
	for _, m := range endToEnd {
		out[m.name] = metricOut{vals[m.name], m.unit}
	}
	return out, fmt.Sprintf("cell_s_tail is p%d of cells=%d over %d passes; setup_s is the median of %d set-ups",
		q, len(cells), len(passes), len(setups))
}

func digestNote(wl string, seed int64, got string) string {
	var ref map[string]string
	if err := json.Unmarshal(referenceDigests, &ref); err != nil {
		return "digest " + got + " (reference table unreadable: " + err.Error() + ")"
	}
	want, ok := ref[fmt.Sprintf("%s/%d", wl, seed)]
	switch {
	case !ok:
		return "digest " + got + " (no reference for this seed)"
	case want == got:
		return "digest " + got + " (unchanged from reference)"
	default:
		return "digest " + got + " (CHANGED from reference " + want + ")"
	}
}

// provenance stamps a result with what it was measured on.
func provenance(root string, seed int64) (map[string]any, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return nil, err
	}
	commit := "none (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"commit":             commit,
		"source_sha":         src,
		"go":                 runtime.Version(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"seed":               seed,
		"load1_start":        loadAvg(),
		"host_loop_ms_start": hostLoopMS(),
		"unix_seconds":       time.Now().Unix(),
	}, nil
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the code measured where no commit id is available.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// hostDrift is the change in hostLoopMS between the start and the end of
// a run above which the run notes that the host's speed changed.
const hostDrift = 0.2

// loopSink keeps the compiler from dropping hostLoopMS's work.
var loopSink uint32

// hostLoopMS times a fixed amount of arithmetic and updates to a 64 KiB
// table, the fastest of seven runs, in milliseconds. Stamped at the start
// and end of every run, it tells results taken while the host ran at
// different speeds apart, which the load average does not on a shared
// host. The table stays in cache and the fastest run is kept, so memory
// traffic and preemption by other processes hardly move it.
func hostLoopMS() float64 {
	const mask = 1<<14 - 1
	table := make([]uint32, mask+1)
	best := math.Inf(1)
	for k := 0; k < 7; k++ {
		start := time.Now()
		x := uint32(1)
		for i := 0; i < 1<<23; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			table[x&mask] += x
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/1e6)
		loopSink += table[x&mask]
	}
	return best
}

// loadAvg is the 1-minute load average, or -1 where it cannot be read.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
