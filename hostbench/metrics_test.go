package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{16, 37}, // the cells of one pass of each workload
		{36, 72},
		{72, 86},
		{10, 0}, // too few cells for any tail
		{504, 98},
	} {
		q := tailPercentile(tc.n)
		if q != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, q, tc.want)
		}
		if q == 0 {
			continue
		}
		// The rule itself: at least 10 cells rank beyond p_q, fewer beyond p_{q+1}.
		if beyond := tc.n - (q*tc.n+99)/100; beyond < tailMinBeyond {
			t.Errorf("n=%d: %d cells beyond p%d", tc.n, beyond, q)
		}
		if beyond := tc.n - ((q+1)*tc.n+99)/100; beyond >= tailMinBeyond {
			t.Errorf("n=%d: p%d also leaves %d cells beyond it", tc.n, q+1, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The charsets BENCHMARK.json allows for metric names and units.
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(m.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is outside [A-Za-z0-9_/%%.-]{1,16}", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s defined twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "-lead", "has space", "x/y", "a2345678901234567890123456789012345678901234567890123456789012345"} {
		if metricNameRE.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and
// workloads in step with the ones the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []m, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, program has %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestWorkloadsBuild(t *testing.T) {
	for _, w := range workloadList {
		apps, cfgs, err := w.build(7)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got := len(apps) * len(cfgs); got != w.numCells() {
			t.Errorf("%s: builds %d cells, numCells says %d", w.name, got, w.numCells())
		}
		for _, c := range cfgs {
			if c.Seed != 7 {
				t.Errorf("%s: config %s has seed %d", w.name, c.Name, c.Seed)
			}
		}
	}
}

func TestReferenceDigests(t *testing.T) {
	var ref map[string]string
	if err := json.Unmarshal(referenceDigests, &ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList {
		for seed := 1; seed <= 10; seed++ {
			if len(ref[fmt.Sprintf("%s/%d", w.name, seed)]) != 16 {
				t.Errorf("no reference digest for %s seed %d", w.name, seed)
			}
		}
	}
	if got := digestNote("rf-bound", 1, ref["rf-bound/1"]); !strings.Contains(got, "unchanged") {
		t.Errorf("matching digest reported as %q", got)
	}
	if got := digestNote("rf-bound", 1, "0000000000000000"); !strings.Contains(got, "CHANGED") {
		t.Errorf("changed digest reported as %q", got)
	}
}
