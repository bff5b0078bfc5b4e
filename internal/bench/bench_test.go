package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func testApp(name string, iters int) workloads.App {
	p := workloads.Profile{
		Name: name, Blocks: 2, WarpsPerBlock: 4, RegsPerThread: 8,
		Iters: iters, ILP: 2, FMAs: 4,
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return workloads.App{Name: name, Suite: "test", Kernels: []*gpu.Kernel{p.Kernel()}}
}

func testCfg(name string) config.GPU {
	g := config.VoltaV100()
	g.NumSMs = 1
	g.Name = name
	return g
}

func sweep(t *testing.T) (*Baseline, []workloads.App, []string) {
	t.Helper()
	cfgs := []config.GPU{testCfg("cfgA"), testCfg("cfgB")}
	names := []string{"cfgA", "cfgB"}
	apps := []workloads.App{testApp("app0", 300), testApp("app1", 500)}
	res, err := harness.Run(context.Background(), cfgs, names, apps, harness.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatal("sweep faulted")
	}
	return FromResult(res, apps, names, "2026-01-01T00:00:00Z"), apps, names
}

// TestRoundTrip: Write then Read reproduces the baseline, and the schema
// tag is enforced.
func TestRoundTrip(t *testing.T) {
	b, _, _ := sweep(t)
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(b.Cells) || got.Created != b.Created {
		t.Fatalf("round trip lost data: %d cells vs %d", len(got.Cells), len(b.Cells))
	}
	for i := range got.Cells {
		// Cells hold a map; compare key fields directly.
		if got.Cells[i].App != b.Cells[i].App || got.Cells[i].Config != b.Cells[i].Config ||
			got.Cells[i].IPC != b.Cells[i].IPC || got.Cells[i].Cycles != b.Cells[i].Cycles ||
			len(got.Cells[i].CPIShares) != len(b.Cells[i].CPIShares) {
			t.Fatalf("cell %d differs: %+v vs %+v", i, got.Cells[i], b.Cells[i])
		}
	}
	if _, err := Read(strings.NewReader(`{"schema":"bogus/9","cells":[]}`)); err == nil {
		t.Fatal("bogus schema accepted")
	}
}

// TestBaselineDeterminism: two identical sweeps yield byte-identical
// baseline files after Strip (which removes only Created and the
// wall-clock throughput — the documented nondeterministic fields).
func TestBaselineDeterminism(t *testing.T) {
	encode := func() string {
		b, _, _ := sweep(t)
		b.Strip()
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	b1, b2 := encode(), encode()
	if b1 != b2 {
		t.Errorf("baselines differ:\n--- run1 ---\n%s\n--- run2 ---\n%s", b1, b2)
	}
	if !strings.Contains(b1, `"cpi_shares"`) {
		t.Error("baseline lost the CPI shares")
	}
}

// TestCellShape: each cell carries a full CPI-share map that sums to 1.
func TestCellShape(t *testing.T) {
	b, apps, names := sweep(t)
	if len(b.Cells) != len(apps)*len(names) {
		t.Fatalf("got %d cells, want %d", len(b.Cells), len(apps)*len(names))
	}
	for _, c := range b.Cells {
		if c.Cycles <= 0 || c.IPC <= 0 {
			t.Errorf("cell %s/%s: empty measurements: %+v", c.App, c.Config, c)
		}
		if len(c.CPIShares) != int(stats.NumCPIComponents) {
			t.Errorf("cell %s/%s: %d CPI shares, want %d", c.App, c.Config, len(c.CPIShares), stats.NumCPIComponents)
		}
		var sum float64
		for _, s := range c.CPIShares {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("cell %s/%s: CPI shares sum to %v", c.App, c.Config, sum)
		}
	}
}

// TestCompareRegression: an injected >= 2% IPC drop gates; a smaller one
// does not; improved IPC never gates.
func TestCompareRegression(t *testing.T) {
	mk := func(ipcs map[string]float64) *Baseline {
		b := New("")
		for app, ipc := range ipcs {
			b.Cells = append(b.Cells, Cell{App: app, Config: "gto", Cycles: 100, Instructions: 100, IPC: ipc,
				CPIShares: map[string]float64{"issue": 1}})
		}
		return b
	}
	old := mk(map[string]float64{"a": 1.0, "b": 2.0})

	d := Compare(old, mk(map[string]float64{"a": 0.95, "b": 1.90})) // 5% drop everywhere
	if !d.Regression(0.02) {
		t.Errorf("5%% drop not gated: geomean %v", d.Geomean)
	}
	d = Compare(old, mk(map[string]float64{"a": 0.995, "b": 1.99})) // 0.5% drop
	if d.Regression(0.02) {
		t.Errorf("0.5%% drop gated: geomean %v", d.Geomean)
	}
	d = Compare(old, mk(map[string]float64{"a": 1.1, "b": 2.2}))
	if d.Regression(0.02) {
		t.Errorf("speedup gated: geomean %v", d.Geomean)
	}
	// No matched cells is never a regression.
	d = Compare(old, mk(map[string]float64{"zzz": 1.0}))
	if d.Regression(0.02) {
		t.Error("disjoint baselines gated")
	}
	if len(d.OnlyOld) != 2 || len(d.OnlyNew) != 1 {
		t.Errorf("coverage drift: onlyOld=%v onlyNew=%v", d.OnlyOld, d.OnlyNew)
	}
}

// TestGate: the CI verdict fails on a regression, on a comparison that
// matched nothing, and on baseline cells the new run dropped; cells
// only the new run has are reported but pass.
func TestGate(t *testing.T) {
	mk := func(ipcs map[string]float64) *Baseline {
		b := New("")
		for app, ipc := range ipcs {
			b.Cells = append(b.Cells, Cell{App: app, Config: "gto", IPC: ipc})
		}
		return b
	}
	old := mk(map[string]float64{"a": 1.0, "b": 2.0})
	for _, tc := range []struct {
		name string
		cur  map[string]float64
		want string // substring of the gate error; "" = pass
	}{
		{"identical", map[string]float64{"a": 1.0, "b": 2.0}, ""},
		{"new cell only", map[string]float64{"a": 1.0, "b": 2.0, "c": 3.0}, ""},
		{"regression", map[string]float64{"a": 0.95, "b": 1.90}, "geomean IPC ratio"},
		{"no matched cells", map[string]float64{"zzz": 1.0}, "no matched cells"},
		{"no cells at all", map[string]float64{}, "no matched cells"},
		{"baseline cell dropped", map[string]float64{"a": 1.0}, "1 baseline cell(s) missing from the new run (first: b on gto)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Compare(old, mk(tc.cur)).Gate(0.02)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("gate failed: %v", err)
			case tc.want != "" && err == nil:
				t.Errorf("gate passed, want failure containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("gate error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestCompareIgnoresWallClock: wall-clock throughput differences never
// affect the diff.
func TestCompareIgnoresWallClock(t *testing.T) {
	b1 := New("")
	b1.Cells = append(b1.Cells, Cell{App: "a", Config: "gto", IPC: 1, WallCyclesPerSec: 1e6})
	b2 := New("")
	b2.Cells = append(b2.Cells, Cell{App: "a", Config: "gto", IPC: 1, WallCyclesPerSec: 5})
	d := Compare(b1, b2)
	if d.Geomean != 1 || d.Regression(0.0) {
		t.Errorf("wall-clock leaked into comparison: %+v", d)
	}
}

// TestRender smoke-tests the human-readable report.
func TestRender(t *testing.T) {
	old := New("")
	old.Cells = append(old.Cells, Cell{App: "a", Config: "gto", IPC: 1,
		CPIShares: map[string]float64{"issue": 0.8, "memory": 0.1, "idle": 0.1}})
	cur := New("")
	cur.Cells = append(cur.Cells, Cell{App: "a", Config: "gto", IPC: 0.9,
		CPIShares: map[string]float64{"issue": 0.7, "memory": 0.3, "idle": 0}})
	d := Compare(old, cur)
	var buf bytes.Buffer
	d.Render(&buf, 0.02)
	out := buf.String()
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "!") {
		t.Errorf("render missing verdict or regression marker:\n%s", out)
	}
	if !strings.Contains(out, "cpi[memory] drift") {
		t.Errorf("render missing CPI drift note:\n%s", out)
	}
}

// TestWriteReadFile covers the file round trip.
func TestWriteReadFile(t *testing.T) {
	b, _, _ := sweep(t)
	path := t.TempDir() + "/BENCH_test.json"
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(b.Cells) {
		t.Fatalf("file round trip lost cells: %d vs %d", len(got.Cells), len(b.Cells))
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
