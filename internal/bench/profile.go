package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/workloads"
)

// Sweep profiler: measures the *simulator's* performance — wall-clock,
// simulated cycles and instructions per second, and heap allocations —
// per (application, configuration) cell. cmd/sweep emits the report as
// JSON so performance PRs have a machine-readable baseline to diff
// against. It lives beside the baseline format rather than in
// internal/exp because host wall-clock is its purpose, and exp's result
// tables must stay bit-deterministic.

// ProfileEntry is one (application, configuration) measurement.
type ProfileEntry struct {
	App    string `json:"app"`
	Config string `json:"config"`
	// Cycles and Instructions are the simulated totals of the run.
	Cycles       int64 `json:"cycles"`
	Instructions int64 `json:"instructions"`
	// WallSeconds is the run's host wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// SimCyclesPerSec and SimInstrPerSec are the simulator's throughput.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	SimInstrPerSec  float64 `json:"sim_instr_per_sec"`
	// Allocs and AllocBytes are the heap allocations the run performed
	// (runtime.MemStats deltas; runs execute serially so deltas are
	// attributable).
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// ProfileReport is the full profiler output.
type ProfileReport struct {
	GoOS    string         `json:"goos"`
	GoArch  string         `json:"goarch"`
	NumCPU  int            `json:"num_cpu"`
	Entries []ProfileEntry `json:"entries"`
	Totals  ProfileTotals  `json:"totals"`
}

// ProfileTotals aggregates the report.
type ProfileTotals struct {
	Runs            int     `json:"runs"`
	WallSeconds     float64 `json:"wall_seconds"`
	Cycles          int64   `json:"cycles"`
	Instructions    int64   `json:"instructions"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	SimInstrPerSec  float64 `json:"sim_instr_per_sec"`
	Allocs          uint64  `json:"allocs"`
	AllocBytes      uint64  `json:"alloc_bytes"`
}

// Profile runs every app on every configuration serially (so wall-clock
// and allocation deltas are attributable to one run) and returns the
// measurements. names labels the configurations in the report; it must
// match cfgs in length (nil falls back to cfg.Name).
func Profile(cfgs []config.GPU, names []string, apps []workloads.App) (*ProfileReport, error) {
	rep := &ProfileReport{
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	var ms0, ms1 runtime.MemStats
	for _, app := range apps {
		for ci, cfg := range cfgs {
			name := cfg.Name
			if names != nil {
				name = names[ci]
			}
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			r, err := exp.RunApp(cfg, app)
			if err != nil {
				return nil, err
			}
			wall := time.Since(start).Seconds()
			runtime.ReadMemStats(&ms1)
			e := ProfileEntry{
				App:          app.Name,
				Config:       name,
				Cycles:       r.Cycles,
				Instructions: r.Instructions,
				WallSeconds:  wall,
				Allocs:       ms1.Mallocs - ms0.Mallocs,
				AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
			}
			if wall > 0 {
				e.SimCyclesPerSec = float64(r.Cycles) / wall
				e.SimInstrPerSec = float64(r.Instructions) / wall
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	t := &rep.Totals
	for _, e := range rep.Entries {
		t.Runs++
		t.WallSeconds += e.WallSeconds
		t.Cycles += e.Cycles
		t.Instructions += e.Instructions
		t.Allocs += e.Allocs
		t.AllocBytes += e.AllocBytes
	}
	if t.WallSeconds > 0 {
		t.SimCyclesPerSec = float64(t.Cycles) / t.WallSeconds
		t.SimInstrPerSec = float64(t.Instructions) / t.WallSeconds
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r *ProfileReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
