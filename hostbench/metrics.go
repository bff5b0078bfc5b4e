package main

import (
	"sort"

	"repro/internal/stats"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run. All timings are host time. failed_cell_frac is carried
// by the result's attempted and failed counts, as it is 0 on a healthy run.
var endToEnd = []metricDef{
	{"sim_instr_per_s", "instr/s"},
	{"cell_s_p50", "s"},
	{"cell_s_tail", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. host_share.* and the
// gpu.*, workloads.* and harness.* times are host time; every other
// number counts simulated events, and model.* are the simulated totals a
// host-speed change must leave unchanged.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, l := range shareLayers {
		ms = append(ms, metricDef{"host_share." + l, "frac"})
	}
	ms = append(ms, metricDef{"smcore.host_ns_per_instr", "ns"})
	for s := stats.StallNoWarp; s < stats.NumStallReasons; s++ {
		ms = append(ms, metricDef{"smcore.stall." + s.String(), "cycles"})
	}
	ms = append(ms,
		metricDef{"smcore.issue_cov", "ratio"},
		metricDef{"regfile.reads", "count"},
		metricDef{"regfile.bank_conflicts", "count"},
		metricDef{"regfile.conflicts_per_read", "ratio"},
		metricDef{"core.assign_fallbacks", "count"},
		metricDef{"mem.l1_hit_rate", "frac"},
		metricDef{"mem.l1_misses", "count"},
		metricDef{"mem.shared_conflicts", "cycles"},
		metricDef{"gpu.new_s", "s"},
		metricDef{"gpu.run_s", "s"},
		metricDef{"gpu.host_ns_per_cycle", "ns"},
		metricDef{"gpu.host_ns_per_ticked_cycle", "ns"},
		metricDef{"gpu.ff_cycle_frac", "frac"},
		metricDef{"gpu.alloc_mb", "MB"},
		metricDef{"harness.wall_s", "s"},
		metricDef{"harness.cell_sum_s", "s"},
		metricDef{"harness.busy_frac", "frac"},
		metricDef{"workloads.warp_program_calls", "count"},
		metricDef{"workloads.warp_program_s", "s"},
		metricDef{"model.cycles", "cycles"},
		metricDef{"model.ipc", "instr/cycle"},
		metricDef{"model.occupancy", "warps"},
	)
	for c := stats.CPIComponent(0); c < stats.NumCPIComponents; c++ {
		ms = append(ms, metricDef{"model.cpi." + c.String() + "_cycles", "cycles"})
	}
	return append(ms, metricDef{"trace_overhead_frac", "frac"})
}()

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailMinBeyond is how many samples must rank above the tail percentile.
const tailMinBeyond = 10

// tailPercentile is the highest whole percentile q of n samples whose
// nearest-rank position ceil(q·n/100) leaves at least tailMinBeyond
// samples beyond it; 0 when n is too small for any.
func tailPercentile(n int) int {
	for q := 99; q > 0; q-- {
		if rank := (q*n + 99) / 100; n-rank >= tailMinBeyond {
			return q
		}
	}
	return 0
}
