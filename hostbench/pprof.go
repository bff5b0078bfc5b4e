package main

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// shareLayers are the host_share.* metrics a traced run reports. Every
// profile sample goes to exactly one of them, so they sum to 1.
var shareLayers = []string{
	"smcore", "regfile", "core", "mem", "gpu", "workloads", "program", "isa",
	"runtime", "bench", "other",
}

const internalPrefix = "repro/internal/"

// gcFramePrefixes name the runtime's garbage-collector functions. A
// sample with one of them anywhere on its stack is GC work (a mark
// assist charged to an allocating caller, a background mark worker, a
// sweep) and goes to "runtime", whichever frame called it.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
}

// creditFor names the layer a sample's CPU time is credited to, given its
// stack as function names, innermost first: "runtime" for GC work, else
// the package of the innermost repro/internal/<pkg> frame, "bench" when
// the benchmark's own code (package main) is innermost, "runtime" when no
// frame is either (scheduler, idle GC), and "other" for a repro package
// outside shareLayers.
func creditFor(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		// The package path ends at the first dot after its last slash:
		// "smcore.(*SM).Tick" is package smcore.
		slash := strings.LastIndexByte(rest, '/') + 1
		pkg := rest
		if dot := strings.IndexByte(rest[slash:], '.'); dot >= 0 {
			pkg = rest[:slash+dot]
		}
		for _, l := range shareLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	return "runtime"
}

// hostShares reads a CPU profile with `go tool pprof -traces` and returns
// each layer's share of the sampled CPU time, plus that time in
// nanoseconds.
func hostShares(ctx context.Context, path string) (map[string]float64, int64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-unit=ns", "-symbolize=none", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %v: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return sharesFromTraces(string(out))
}

// traceSep starts every stack in `go tool pprof -traces` output.
const traceSep = "-----------+"

// sharesFromTraces attributes the stacks of `go tool pprof -traces
// -unit=ns` output. Each stack follows a separator line; its first line
// is "<value>ns <innermost function>", the next lines its callers.
func sharesFromTraces(text string) (map[string]float64, int64, error) {
	byLayer := map[string]int64{}
	var total int64
	blocks := strings.Split(text, traceSep)
	for _, b := range blocks[1:] {
		lines := strings.Split(b, "\n")[1:] // drop the rest of the separator line
		if len(lines) == 0 || strings.TrimSpace(lines[0]) == "" {
			continue
		}
		value, fn, ok := strings.Cut(strings.TrimSpace(lines[0]), " ")
		ns, err := strconv.ParseInt(strings.TrimSuffix(value, "ns"), 10, 64)
		if !ok || err != nil || !strings.HasSuffix(value, "ns") {
			return nil, 0, fmt.Errorf("cpu profile traces: bad stack head %q", lines[0])
		}
		stack := []string{frameName(fn)}
		for _, l := range lines[1:] {
			if l = strings.TrimSpace(l); l != "" {
				stack = append(stack, frameName(l))
			}
		}
		byLayer[creditFor(stack)] += ns
		total += ns
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile holds no samples")
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, total, nil
}

// frameName strips pprof's " (inline)" marker from a function name.
func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}
