package harness

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// An injected mid-kernel corruption surfaces as a structured FaultAudit
// carrying the *gpu.AuditError, not as silent bad statistics.
func TestInjectCorruptBecomesAuditFault(t *testing.T) {
	cfg, app := testCfg("base"), testApp("corrupt", 20_000)
	reg := metrics.New()
	run, fault := RunOne(context.Background(), cfg, app, Options{
		Metrics:  reg,
		Injector: InjectFault(map[string]Injection{"corrupt/base": InjectCorrupt}),
		Logf:     t.Logf,
	})
	if run != nil || fault == nil {
		t.Fatalf("run=%v fault=%v, want an audit fault", run, fault)
	}
	if fault.Kind != FaultAudit {
		t.Fatalf("fault kind = %v, want audit (%v)", fault.Kind, fault)
	}
	var ae *gpu.AuditError
	if !errors.As(fault, &ae) {
		t.Fatalf("audit fault must unwrap to *gpu.AuditError, got %v", fault)
	}
	if len(ae.Violations) == 0 || ae.Cycle == 0 {
		t.Fatalf("audit error lost its evidence: %+v", ae)
	}
	if fault.Cycle != ae.Cycle {
		t.Errorf("fault cycle %d != audit cycle %d", fault.Cycle, ae.Cycle)
	}
	m := newSweepMetrics(reg)
	if got := m.faults[FaultAudit].Value(); got != 1 {
		t.Errorf("sweep_faults_total{kind=audit} = %d, want 1", got)
	}
}

// Mid-kernel faults on multi-heartbeat cells: injected state corruption
// dies as an audit fault and the hang as a watchdog kill, the healthy
// cells complete, and — the injector being one-shot — a re-run against
// the same checkpoint re-simulates only the two faulted cells and
// completes the matrix.
func TestChaosSweepAuditHealsFromCheckpoint(t *testing.T) {
	cfgs := []config.GPU{testCfg("cfgA"), testCfg("cfgB")}
	apps := []workloads.App{testApp("app0", 20_000), testApp("app1", 20_000)}
	// These cells run long enough (20k cycles each, 4 workers) that on a
	// small or loaded machine the race detector's slowdown can starve a
	// healthy cell past a tight forward-progress deadline; widen it so
	// only the injected hang ever trips the watchdog.
	wd := 50 * time.Millisecond
	if raceEnabled {
		wd = time.Second
	}
	opt := Options{
		Workers:          4,
		WatchdogInterval: wd,
		CheckpointPath:   filepath.Join(t.TempDir(), "chaos.ckpt"),
		Injector: InjectFault(map[string]Injection{
			"app0/cfgA": InjectCorrupt,
			"app1/cfgB": InjectHang,
		}),
		Logf: t.Logf,
	}

	res, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 2 {
		t.Fatalf("got %d faults, want the 2 injected: %v", len(res.Faults), res.Faults)
	}
	kinds := map[string]FaultKind{}
	for _, f := range res.Faults {
		kinds[f.App+"/"+f.Config] = f.Kind
	}
	if kinds["app0/cfgA"] != FaultAudit {
		t.Errorf("corrupt cell fault = %v, want audit", kinds["app0/cfgA"])
	}
	if kinds["app1/cfgB"] != FaultWatchdog {
		t.Errorf("hung cell fault = %v, want watchdog", kinds["app1/cfgB"])
	}

	// Second pass: injections are spent, so the faulted cells run clean
	// and the whole matrix completes.
	res2, err := Run(context.Background(), cfgs, nil, apps, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Complete() {
		t.Fatalf("resume left faults: %v", res2.Errs.Err())
	}
	if res2.Resumed != 2 || res2.Executed != 2 {
		t.Errorf("resume: resumed %d, executed %d; want 2, 2", res2.Resumed, res2.Executed)
	}
}
