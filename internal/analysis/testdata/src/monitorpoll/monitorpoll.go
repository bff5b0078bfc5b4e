// Package monitorpoll is the golden-file fixture for the monitorpoll
// analyzer: unbounded cycle loops with and without the gpu.Monitor
// heartbeat/cancel poll the sweep watchdog depends on.
package monitorpoll

import "repro/internal/gpu"

type device struct {
	mon  *gpu.Monitor
	done bool
}

func (d *device) Tick() {}

// runUnsupervised free-runs the device: the watchdog cannot stop it.
func runUnsupervised(d *device) {
	for !d.done { // want "never polls gpu.Monitor"
		d.Tick()
	}
}

// runSupervised polls the monitor every iteration — the contract.
func runSupervised(d *device) {
	for !d.done {
		d.Tick()
		if d.mon.Canceled() {
			return
		}
	}
}

// heartbeat bundles the monitor poll with other periodic work, the way
// the real cycle loop factors audits and metrics flushes into one beat.
func (d *device) heartbeat() bool {
	return d.mon.Canceled()
}

// runViaHeartbeat polls through the helper: one level of same-package
// indirection is supervised, no finding.
func runViaHeartbeat(d *device) {
	for !d.done {
		d.Tick()
		if d.heartbeat() {
			return
		}
	}
}

// drain ranges over a slice: range loops are out of scope by design.
func drain(devs []*device) {
	for _, dev := range devs {
		dev.Tick()
	}
}

// runBounded is a justified suppression: 16 iterations cannot livelock.
func runBounded(d *device) {
	for i := 0; i < 16; i++ { //simlint:allow monitorpoll -- bounded warm-up loop; cannot livelock
		d.Tick()
	}
}
