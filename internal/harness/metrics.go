package harness

import (
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// sweepMetrics bundles the harness's registered telemetry handles. A
// nil *sweepMetrics is the disabled state; every use site guards on it
// (the same nil-guard contract simlint's traceguard analyzer enforces
// for trace emission).
type sweepMetrics struct {
	reg *metrics.Registry

	cellsTotal   *metrics.Gauge
	cellsDone    *metrics.Counter
	cellsResumed *metrics.Counter
	retries      *metrics.Counter
	ckptWrites   *metrics.Counter
	faults       [numFaultKinds]*metrics.Counter
	cpi          [stats.NumCPIComponents]*metrics.Counter
	cellIPC      *metrics.Histogram
}

// newSweepMetrics registers the harness metric families on reg; nil reg
// yields nil (telemetry off).
func newSweepMetrics(reg *metrics.Registry) *sweepMetrics {
	if reg == nil {
		return nil
	}
	m := &sweepMetrics{reg: reg}
	m.cellsTotal = reg.Gauge("sweep_cells_total",
		"cells (application x configuration) in the sweep matrix")
	m.cellsDone = reg.Counter("sweep_cells_completed_total",
		"cells simulated to completion this run")
	m.cellsResumed = reg.Counter("sweep_cells_resumed_total",
		"cells restored from the checkpoint instead of re-simulated")
	m.retries = reg.Counter("sweep_retries_total",
		"deadline-killed cells re-run once at a raised cycle cap")
	m.ckptWrites = reg.Counter("sweep_checkpoint_writes_total",
		"cells appended to the JSONL checkpoint")
	for k := FaultKind(0); k < numFaultKinds; k++ {
		m.faults[k] = reg.Counter("sweep_faults_total",
			"faulted cells by fault kind", metrics.L("kind", k.String()))
	}
	for c := stats.CPIComponent(0); c < stats.NumCPIComponents; c++ {
		m.cpi[c] = reg.Counter("sim_cpi_cycles_total",
			"top-down CPI stack: sub-core cycles attributed to each cause, summed over completed cells",
			metrics.L("component", c.String()))
	}
	m.cellIPC = reg.Histogram("sweep_cell_ipc",
		"distribution of per-cell device IPC over completed cells",
		[]float64{0.25, 0.5, 1, 2, 4, 8, 16})
	return m
}

// watchCell registers (or re-points, on retry) the cell's live-progress
// gauge at its monitor: the gauge reads the last heartbeat cycle at
// scrape time, so a hung cell is visible as a stalled value.
func (m *sweepMetrics) watchCell(app, cfgName string, mon *gpu.Monitor) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("sweep_cell_heartbeat_cycle",
		"last monitor heartbeat cycle per live cell (stalled value = hung cell)",
		func() float64 { return float64(mon.Cycle()) },
		metrics.L("app", app), metrics.L("config", cfgName))
}

// cellDone accounts one successfully completed cell: the completion
// counter, its IPC observation, and its CPI stack folded into the
// device-wide attribution totals.
func (m *sweepMetrics) cellDone(run *stats.Run) {
	if m == nil {
		return
	}
	m.cellsDone.Inc()
	m.cellIPC.Observe(run.IPC())
	st := run.CPIStack()
	for c, v := range st {
		m.cpi[c].Add(v)
	}
}

// cellFaulted accounts one terminally faulted cell by kind.
func (m *sweepMetrics) cellFaulted(k FaultKind) {
	if m == nil {
		return
	}
	m.faults[k].Inc()
}

// retried accounts one bounded deadline retry.
func (m *sweepMetrics) retried() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

// checkpointWrote accounts one checkpoint append.
func (m *sweepMetrics) checkpointWrote() {
	if m == nil {
		return
	}
	m.ckptWrites.Inc()
}

// sweepShape publishes the matrix size and resumed-cell count.
func (m *sweepMetrics) sweepShape(total, resumed int) {
	if m == nil {
		return
	}
	m.cellsTotal.Set(float64(total))
	m.cellsResumed.Add(int64(resumed))
}
