// Package bench defines the cross-run performance baseline format
// (BENCH_<date>.json) and its regression comparator. A baseline records
// each sweep cell's deterministic results — cycles, instructions, IPC,
// CPI-stack shares — plus informational wall-clock throughput, so CI
// can diff a fresh sweep against a committed baseline and fail on a
// geomean IPC regression instead of a human rereading result tables.
//
// Determinism contract: everything in a baseline except the Created
// timestamp and the wall-clock throughput fields is bit-deterministic.
// Two identical runs produce byte-identical files modulo those fields
// (Strip removes them for comparison), and Compare never reads them.
//
// profile.go holds the other host-performance report, the serial sweep
// profiler behind `sweep -profile`.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Schema identifies the baseline format version.
const Schema = "subcoresim-bench/1"

// Cell is one (application, configuration) measurement.
type Cell struct {
	App    string `json:"app"`
	Config string `json:"config"`
	// Cycles, Instructions, IPC are deterministic simulation outputs.
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	IPC          float64 `json:"ipc"`
	// CPIShares maps each CPI-stack component to its share of total
	// attributed cycles (deterministic; keys sort in the JSON encoding).
	CPIShares map[string]float64 `json:"cpi_shares"`
	// WallCyclesPerSec is simulated cycles per wall-clock second — a
	// timestamp-derived, machine-dependent field. Informational only:
	// excluded from Compare and from Strip'd determinism checks. Zero
	// when the cell was restored from a checkpoint.
	WallCyclesPerSec float64 `json:"wall_cycles_per_sec,omitempty"`
}

// Baseline is one recorded sweep.
type Baseline struct {
	Schema string `json:"schema"`
	// Created is the RFC3339 write timestamp (timestamp field, excluded
	// from comparison).
	Created string `json:"created,omitempty"`
	Cells   []Cell `json:"cells"`
}

// New returns an empty baseline stamped with created (RFC3339, may be
// empty for deterministic output).
func New(created string) *Baseline {
	return &Baseline{Schema: Schema, Created: created}
}

// AddRun appends one cell from a completed run. wallSeconds is the
// cell's wall-clock simulation time (0 = unknown, e.g. resumed cells).
func (b *Baseline) AddRun(app, cfgName string, r *stats.Run, wallSeconds float64) {
	c := Cell{
		App:          app,
		Config:       cfgName,
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		IPC:          r.IPC(),
		CPIShares:    map[string]float64{},
	}
	st := r.CPIStack()
	shares := st.Shares()
	for i, s := range shares {
		c.CPIShares[stats.CPIComponent(i).String()] = s
	}
	if wallSeconds > 0 {
		c.WallCyclesPerSec = float64(r.Cycles) / wallSeconds
	}
	b.Cells = append(b.Cells, c)
}

// FromResult builds a baseline from a sweep result, skipping faulted
// cells. apps and names index the result matrix exactly as they were
// passed to harness.Run.
func FromResult(res *harness.Result, apps []workloads.App, names []string, created string) *Baseline {
	b := New(created)
	for i := range apps {
		for j := range names {
			r := res.Runs[i][j]
			if r == nil {
				continue
			}
			var wall float64
			if res.Wall != nil {
				wall = res.Wall[i][j]
			}
			b.AddRun(apps[i].Name, names[j], r, wall)
		}
	}
	return b
}

// sortCells orders cells by (app, config) so encoding is deterministic
// regardless of sweep worker scheduling.
func (b *Baseline) sortCells() {
	sort.Slice(b.Cells, func(i, j int) bool {
		if b.Cells[i].App != b.Cells[j].App {
			return b.Cells[i].App < b.Cells[j].App
		}
		return b.Cells[i].Config < b.Cells[j].Config
	})
}

// Strip zeroes the timestamp-derived fields (Created, per-cell
// wall-clock throughput), leaving only the deterministic payload —
// what the byte-identity tests compare.
func (b *Baseline) Strip() {
	b.Created = ""
	for i := range b.Cells {
		b.Cells[i].WallCyclesPerSec = 0
	}
}

// Write encodes the baseline as indented JSON, cells sorted.
func (b *Baseline) Write(w io.Writer) error {
	b.sortCells()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteFile writes the baseline to path.
func (b *Baseline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	werr := b.Write(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("bench: encode %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("bench: close %s: %w", path, cerr)
	}
	return nil
}

// Read decodes a baseline and validates its schema tag.
func Read(r io.Reader) (*Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("bench: decode: %w", err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("bench: unsupported schema %q (want %q)", b.Schema, Schema)
	}
	return &b, nil
}

// ReadFile reads a baseline from path.
func ReadFile(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	b, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return b, nil
}

// CellDelta is one matched cell's old-vs-new comparison.
type CellDelta struct {
	App, Config string
	OldIPC      float64
	NewIPC      float64
	// Ratio is NewIPC / OldIPC (> 1 = speedup, < 1 = regression).
	Ratio float64
	// ShareDrift is the largest absolute CPI-share change across
	// components; DriftComponent names it.
	ShareDrift     float64
	DriftComponent string
}

// Diff is the comparison of two baselines over their matched cells.
type Diff struct {
	// Geomean is the geometric mean of the per-cell IPC ratios
	// (new/old) — the regression gate's single number.
	Geomean float64
	Cells   []CellDelta
	// OnlyOld/OnlyNew list cell keys present in one baseline only
	// (coverage drift). Gate fails on OnlyOld — a baseline cell the new
	// run no longer covers is a cell the gate silently stopped checking
	// — while OnlyNew is reported only.
	OnlyOld, OnlyNew []string
}

func cellKey(c *Cell) string { return c.App + " on " + c.Config }

// Compare matches cells by (app, config) and computes per-cell IPC
// ratios, CPI-share drifts, and the geomean. Wall-clock fields are
// never consulted.
func Compare(old, cur *Baseline) *Diff {
	d := &Diff{}
	oldBy := make(map[string]*Cell, len(old.Cells))
	for i := range old.Cells {
		oldBy[cellKey(&old.Cells[i])] = &old.Cells[i]
	}
	seen := make(map[string]bool, len(cur.Cells))
	cur.sortCells()
	var ratios []float64
	for i := range cur.Cells {
		nc := &cur.Cells[i]
		key := cellKey(nc)
		seen[key] = true
		oc, ok := oldBy[key]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, key)
			continue
		}
		cd := CellDelta{App: nc.App, Config: nc.Config, OldIPC: oc.IPC, NewIPC: nc.IPC}
		if oc.IPC > 0 {
			cd.Ratio = nc.IPC / oc.IPC
			ratios = append(ratios, cd.Ratio)
		}
		for _, comp := range sortedKeys(oc.CPIShares, nc.CPIShares) {
			drift := math.Abs(nc.CPIShares[comp] - oc.CPIShares[comp])
			if drift > cd.ShareDrift {
				cd.ShareDrift, cd.DriftComponent = drift, comp
			}
		}
		d.Cells = append(d.Cells, cd)
	}
	// Deterministic order for OnlyOld regardless of map iteration.
	for i := range old.Cells {
		if key := cellKey(&old.Cells[i]); !seen[key] {
			d.OnlyOld = append(d.OnlyOld, key)
		}
	}
	sort.Strings(d.OnlyOld)
	sort.Strings(d.OnlyNew)
	d.Geomean = stats.GeoMean(ratios)
	return d
}

// sortedKeys returns the union of both maps' keys, sorted.
func sortedKeys(a, b map[string]float64) []string {
	set := make(map[string]bool, len(a)+len(b))
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Regression reports whether the diff's geomean IPC ratio falls below
// 1 - threshold (e.g. threshold 0.02 gates a >= 2% geomean slowdown).
// No matched cells is never a regression; Gate treats it as a failure.
func (d *Diff) Regression(threshold float64) bool {
	return len(d.Cells) > 0 && d.Geomean > 0 && d.Geomean < 1-threshold
}

// Gate is the CI verdict: nil when the new run covers every baseline
// cell and its geomean IPC is within threshold, otherwise an error
// naming the first failed condition. A comparison that matched no
// cells, or lost some, fails: a gate that checks nothing must not pass.
func (d *Diff) Gate(threshold float64) error {
	switch {
	case len(d.Cells) == 0:
		return fmt.Errorf("no matched cells: the new run shares no (app, config) with the baseline")
	case len(d.OnlyOld) > 0:
		return fmt.Errorf("%d baseline cell(s) missing from the new run (first: %s)", len(d.OnlyOld), d.OnlyOld[0])
	case d.Regression(threshold):
		return fmt.Errorf("geomean IPC ratio %.4f < %.4f", d.Geomean, 1-threshold)
	}
	return nil
}

// Render writes a human-readable comparison: the geomean verdict, the
// per-cell table, and coverage drift.
func (d *Diff) Render(w io.Writer, threshold float64) {
	if len(d.Cells) == 0 {
		fmt.Fprintln(w, "benchdiff: no matched cells")
	} else {
		fmt.Fprintf(w, "benchdiff: geomean IPC ratio %.4f over %d cells (gate: < %.4f fails)\n",
			d.Geomean, len(d.Cells), 1-threshold)
	}
	for _, c := range d.Cells {
		mark := " "
		if c.Ratio > 0 && c.Ratio < 1-threshold {
			mark = "!"
		}
		fmt.Fprintf(w, "%s %-12s %-14s ipc %8.4f -> %8.4f  (x%.4f)", mark, c.App, c.Config, c.OldIPC, c.NewIPC, c.Ratio)
		if c.ShareDrift > 0.01 {
			fmt.Fprintf(w, "  cpi[%s] drift %+.1f%%", c.DriftComponent, c.ShareDrift*100)
		}
		fmt.Fprintln(w)
	}
	for _, k := range d.OnlyOld {
		fmt.Fprintf(w, "  only in old baseline: %s\n", k)
	}
	for _, k := range d.OnlyNew {
		fmt.Fprintf(w, "  only in new baseline: %s\n", k)
	}
}
