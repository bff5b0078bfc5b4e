package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/exp"
)

var (
	updateStatsDigest = flag.Bool("update-stats-digest", false,
		"rewrite testdata/stats_digest.json from the current simulator")
	statsDigestMatrix = flag.String("stats-digest-matrix", "",
		"write the stats digest of every app under every {scheduler}x{assignment} config to this JSON file")
)

const statsDigestGolden = "testdata/stats_digest.json"

// digestConfig is one configuration column of the stats-digest matrix.
type digestConfig struct {
	name string
	cfg  Config
}

// policyConfigs is {gto, lrr, rba} x {rr, srr, shuffle} at 2 SMs.
func policyConfigs() []digestConfig {
	var cfgs []digestConfig
	for _, s := range []struct {
		name  string
		sched config.WarpSched
	}{{"gto", SchedGTO}, {"lrr", SchedLRR}, {"rba", SchedRBA}} {
		for _, a := range []struct {
			name   string
			assign config.Assign
		}{{"rr", AssignRR}, {"srr", AssignSRR}, {"shuffle", AssignShuffle}} {
			cfgs = append(cfgs, digestConfig{s.name + "-" + a.name,
				VoltaV100().WithSMs(2).WithScheduler(s.sched).WithAssign(a.assign)})
		}
	}
	return cfgs
}

// statsDigest is the SHA-256 of one run's serialized statistics.
func statsDigest(t *testing.T, cfg Config, app App) string {
	t.Helper()
	r, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:])
}

// digestCells runs every (app, config) cell in parallel subtests and
// returns the digests keyed "suite/app/config".
func digestCells(t *testing.T, apps []App, cfgs []digestConfig) map[string]string {
	got := map[string]string{}
	var mu sync.Mutex
	t.Run("cells", func(t *testing.T) {
		for _, app := range apps {
			for _, dc := range cfgs {
				app, dc := app, dc
				key := app.Suite + "/" + app.Name + "/" + dc.name
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					d := statsDigest(t, dc.cfg, app)
					mu.Lock()
					got[key] = d
					mu.Unlock()
				})
			}
		}
	})
	return got
}

func writeDigests(t *testing.T, path string, m map[string]string) {
	t.Helper()
	j, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(j, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStatsDigest pins the simulator's output bit for bit: the SHA-256
// of the serialized statistics of the first app of every suite, at
// 2 SMs, under every scheduler x assignment pair, the fully-connected
// SM, and bank stealing, must match the committed golden file. A
// host-performance change that claims to be inert must leave every
// digest unchanged; a deliberate model change regenerates the file with
// -update-stats-digest.
//
// With -stats-digest-matrix=<file> it instead writes the digests of all
// apps under the nine scheduler x assignment configs, for comparing two
// builds with cmp.
func TestStatsDigest(t *testing.T) {
	suites, err := Suites()
	if err != nil {
		t.Fatal(err)
	}
	if *statsDigestMatrix != "" {
		apps, err := Workloads()
		if err != nil {
			t.Fatal(err)
		}
		writeDigests(t, *statsDigestMatrix, digestCells(t, apps, policyConfigs()))
		return
	}
	var apps []App
	for _, suite := range suites {
		inSuite, err := AppsBySuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, inSuite[0])
	}
	cfgs := append(policyConfigs(),
		digestConfig{"fc", exp.FC().WithSMs(2)},
		digestConfig{"gto-stealing", VoltaV100().WithSMs(2).WithBankStealing()})
	got := digestCells(t, apps, cfgs)
	if t.Failed() {
		return
	}
	if *updateStatsDigest {
		writeDigests(t, statsDigestGolden, got)
		return
	}
	raw, err := os.ReadFile(statsDigestGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d cells, the test ran %d", len(want), len(got))
	}
	for key, d := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden digest", key)
		} else if w != d {
			t.Errorf("%s: stats digest %s, golden %s", key, d[:16], w[:16])
		}
	}
}
