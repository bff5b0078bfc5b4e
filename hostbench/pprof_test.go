package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestCreditFor(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"repro/internal/smcore.(*SM).Tick", "repro/internal/gpu.(*GPU).cycleLoop"}, "smcore"},
		// Runtime frames above the innermost repro frame are that frame's cost.
		{[]string{"runtime.mapaccess2", "repro/internal/mem.(*mshr).nextEvent", "repro/internal/gpu.(*GPU).nextWake"}, "mem"},
		{[]string{"runtime.mallocgc", "repro/internal/program.(*Builder).Emit", "repro/internal/workloads.(*Profile).Kernel.func2", "main.tracedApp.func1"}, "program"},
		{[]string{"repro/internal/regfile.(*Collector).Tick"}, "regfile"},
		{[]string{"repro/internal/stats.(*Run).CPIStack", "main.modelLayer"}, "other"},
		{[]string{"time.Now", "main.tracedApp.func1", "repro/internal/gpu.(*GPU).blockSpec"}, "bench"},
		// GC work goes to runtime even when a simulator frame allocated.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc",
			"runtime.growslice", "repro/internal/smcore.(*SubCore).buildCandidates"}, "runtime"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime"},
		// Runtime-only stacks: the scheduler.
		{[]string{"runtime.futex", "runtime.schedule", "runtime.mcall"}, "runtime"},
		{nil, "runtime"},
		// A nested internal package path.
		{[]string{"repro/internal/analysis/x.F"}, "other"},
	} {
		if got := creditFor(tc.stack); got != tc.want {
			t.Errorf("creditFor(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// syntheticTraces is `go tool pprof -traces -unit=ns` output: a header,
// then one block per distinct stack, innermost frame first.
const syntheticTraces = `File: hostbench
Type: cpu
Duration: 1s, Total samples = 100ns (0.00%)
-----------+-------------------------------------------------------
      60ns   repro/internal/smcore.(*SM).Tick
             repro/internal/gpu.(*GPU).cycleLoop
-----------+-------------------------------------------------------
      10ns   runtime.scanobject
             runtime.gcDrainN
             runtime.gcAssistAlloc
             runtime.mallocgc
             repro/internal/smcore.(*SubCore).buildCandidates
-----------+-------------------------------------------------------
      20ns   runtime.mapIterNext
             repro/internal/mem.(*mshr).nextEvent (inline)
             repro/internal/gpu.(*GPU).nextWake
-----------+-------------------------------------------------------
10ns   repro/internal/regfile.(*Collector).Tick
             repro/internal/gpu.(*GPU).cycleLoop
-----------+-------------------------------------------------------
`

func TestSharesFromTraces(t *testing.T) {
	shares, total, err := sharesFromTraces(syntheticTraces)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("total cpu = %d ns, want 100", total)
	}
	want := map[string]float64{"smcore": 0.6, "runtime": 0.1, "mem": 0.2, "regfile": 0.1}
	var sum float64
	for _, l := range shareLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("host_share.%s = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestSharesFromTracesRejectsGarbage(t *testing.T) {
	if _, _, err := sharesFromTraces("File: x\n"); err == nil {
		t.Error("accepted output with no stacks")
	}
	bad := "-----------+---\n      10ms   runtime.futex\n"
	if _, _, err := sharesFromTraces(bad); err == nil {
		t.Error("accepted a value not in ns")
	}
}

// TestHostSharesOfRealProfile runs go tool pprof on a CPU profile of a
// busy loop, so a change in pprof's -traces format fails here.
func TestHostSharesOfRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, total, err := hostShares(context.Background(), path)
	if err != nil {
		t.Fatalf("%v (x=%d)", err, x)
	}
	if total <= 0 {
		t.Errorf("total cpu = %d ns", total)
	}
	var sum float64
	for _, l := range shareLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, _, err := hostShares(context.Background(), filepath.Join(t.TempDir(), "missing.pprof")); err == nil {
		t.Error("hostShares accepted a missing profile")
	}
}
