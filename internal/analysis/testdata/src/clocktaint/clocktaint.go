// Package clocktaint is the golden fixture for the value-level
// determinism analyzer: values derived from time.Now/time.Since or the
// global math/rand stream reaching simulation-state fields (every
// fixture package but a "helper" counts as a simulation package), stats
// counters, and NextEvent results — directly, laundered through
// locals, and laundered through another package's return value.
package clocktaint

import (
	"math/rand"
	"time"

	"fixture/clocktaint/pace"
	"fixture/clocktaint/stats"
)

// engine is simulation state.
type engine struct {
	clock  int64
	stalls int64
	cycles int64
}

// stampDirect stores the source straight into simulation state.
func (e *engine) stampDirect() {
	e.clock = time.Now().UnixNano() // want "simulation-state field engine.clock"
}

// stampLaundered moves the taint through a helper package's return
// value and two locals before it lands.
func (e *engine) stampLaundered() {
	t := pace.Stamp()
	u := t + 1
	e.clock = u // want "simulation-state field engine.clock"
}

// jitter taints from the process-global rand stream.
func (e *engine) jitter() {
	r := rand.Int63()
	e.stalls = r // want "simulation-state field engine.stalls"
}

// freshEngine taints through a composite literal element.
func freshEngine() engine {
	return engine{clock: time.Now().UnixNano()} // want "simulation-state field engine.clock"
}

// tally stores a wall-clock duration into a stats counter.
func tally(t *stats.Totals, start time.Time) {
	t.Cells++
	t.Elapsed = int64(time.Since(start)) // want "stats field Totals.Elapsed"
}

// NextEvent returning a clock-derived wake-up cycle breaks the
// fast-forward equivalence contract.
func (e *engine) NextEvent(now int64) int64 {
	if e.cycles > 0 {
		return now + e.cycles
	}
	return time.Now().UnixNano() // want "NextEvent"
}

// advance is clean: cycle-derived values may flow anywhere.
func (e *engine) advance() {
	c := e.cycles + 1
	e.clock = c
}

// waived demonstrates the suppression hatch.
func (e *engine) waived() {
	e.clock = time.Now().UnixNano() //simlint:allow clocktaint -- fixture: demonstrates suppression
}
