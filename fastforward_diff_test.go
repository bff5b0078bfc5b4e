package repro

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestFastForwardInert proves the run loop's idle-cycle fast-forward is
// observationally inert on real workloads: for one application from
// every benchmark suite, plus the load-bound apps whose skips span
// outstanding memory fills, under both GTO and RBA scheduling, the full
// statistics object serializes byte-identically with fast-forward
// enabled and disabled.
func TestFastForwardInert(t *testing.T) {
	suites, err := Suites()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"gto", VoltaV100().WithSMs(2)},
		{"rba", VoltaV100().WithSMs(2).WithScheduler(SchedRBA)},
	}
	var apps []App
	for _, suite := range suites {
		inSuite, err := AppsBySuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, inSuite[0])
	}
	// The load-bound set of the host benchmark's mem-latency workload;
	// rod-bfs already leads the rodinia suite.
	for _, name := range []string{"pb-spmv", "rod-pf", "pb-stencil", "pb-lbm", "rod-htsp", "rod-gaussian", "pb-mrig"} {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	for _, app := range apps {
		for _, tc := range cfgs {
			tc := tc
			app := app
			t.Run(app.Suite+"/"+tc.name+"/"+app.Name, func(t *testing.T) {
				t.Parallel()
				fast, err := Run(tc.cfg, app)
				if err != nil {
					t.Fatal(err)
				}
				slow, err := Run(tc.cfg.WithNoFastForward(), app)
				if err != nil {
					t.Fatal(err)
				}
				fj, err := json.Marshal(fast)
				if err != nil {
					t.Fatal(err)
				}
				sj, err := json.Marshal(slow)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fj, sj) {
					t.Errorf("fast-forward changed results\n ff:  %.300s\n off: %.300s", fj, sj)
				}
			})
		}
	}
}
