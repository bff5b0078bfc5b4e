package main

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/workloads"
)

// workload is one fixed (apps × configs) matrix. The cells run app-major
// in the order listed, the order harness.Run dispatches them in. Why each
// workload was chosen is recorded in BENCHMARK.json.
type workload struct {
	name string
	// apps names the applications; nil selects workloads.RFSensitive().
	apps    []string
	configs []string
}

var workloadList = []workload{
	{name: "rf-bound", configs: []string{"gto", "rba", "4cu", "fc"}},
	{
		name: "tpch-imbalance",
		apps: []string{
			"tpcC-q8", "tpcC-q9", "tpcC-q21", "tpcC-q3", "tpcC-q17", "tpcC-q6",
			"tpcU-q8", "tpcU-q9", "tpcU-q21", "tpcU-q18", "tpcU-q11", "tpcU-q6",
		},
		configs: []string{"rr", "srr", "shuffle"},
	},
	{
		name: "mem-latency",
		apps: []string{
			"pb-spmv", "rod-bfs", "rod-pf", "pb-stencil",
			"pb-lbm", "rod-htsp", "rod-gaussian", "pb-mrig",
		},
		configs: []string{"gto", "rba"},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// numCells is the matrix size, known without building any application.
func (w workload) numCells() int {
	apps := len(w.apps)
	if w.apps == nil {
		apps = rfSensitiveApps
	}
	return apps * len(w.configs)
}

// rfSensitiveApps is len(workloads.RFSensitive()); build checks it so the
// parent's crash accounting never disagrees with the matrix a child runs.
const rfSensitiveApps = 18

// build materializes the matrix: the shared application set from
// workloads.All and one scaled device configuration per config token,
// every one carrying seed as config.Seed.
func (w workload) build(seed int64) ([]workloads.App, []config.GPU, error) {
	var apps []workloads.App
	if w.apps == nil {
		var err error
		if apps, err = workloads.RFSensitive(); err != nil {
			return nil, nil, err
		}
		if len(apps) != rfSensitiveApps {
			return nil, nil, fmt.Errorf("workload %s: %d RF-sensitive apps, want %d", w.name, len(apps), rfSensitiveApps)
		}
	} else {
		for _, name := range w.apps {
			app, err := workloads.ByName(name)
			if err != nil {
				return nil, nil, err
			}
			apps = append(apps, app)
		}
	}
	cfgs := make([]config.GPU, len(w.configs))
	for i, tok := range w.configs {
		cfg, err := configFor(tok)
		if err != nil {
			return nil, nil, err
		}
		cfg.Seed = seed
		cfgs[i] = cfg
	}
	return apps, cfgs, nil
}

// configFor maps a config token to the scaled device the experiments use.
func configFor(tok string) (config.GPU, error) {
	switch tok {
	case "gto", "rr":
		return exp.Base(), nil
	case "rba":
		return exp.Base().WithScheduler(config.SchedRBA), nil
	case "4cu":
		return exp.Base().WithCUs(4), nil
	case "fc":
		return exp.FC(), nil
	case "srr":
		return exp.Base().WithAssign(config.AssignSRR), nil
	case "shuffle":
		return exp.Base().WithAssign(config.AssignShuffle), nil
	}
	return config.GPU{}, fmt.Errorf("unknown config token %q", tok)
}
