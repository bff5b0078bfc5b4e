package gpu

import (
	"fmt"

	"repro/internal/audit"
)

// AuditError reports runtime invariant violations found by the device
// auditor (config.AuditEvery / AuditCheck). It is a structured,
// errors.As-able fault: the harness maps it to FaultAudit and dumps the
// flight recorder, so a corrupted simulation dies loudly at the first
// audited heartbeat instead of producing silently wrong statistics.
type AuditError struct {
	// Cycle is the simulation cycle the audit ran at.
	Cycle int64
	// Violations are the broken conservation laws, in deterministic
	// device order (SMs by index, then the memory hierarchy, then the
	// CPI stack).
	Violations []audit.Violation
}

func (e *AuditError) Error() string {
	if len(e.Violations) == 1 {
		return fmt.Sprintf("gpu: invariant audit failed at cycle %d: %s", e.Cycle, e.Violations[0])
	}
	return fmt.Sprintf("gpu: invariant audit failed at cycle %d: %s (and %d more)",
		e.Cycle, e.Violations[0], len(e.Violations)-1)
}

// AuditCheck re-derives the device's conservation laws and returns every
// violation: per-SM scoreboard/lease/occupancy/budget invariants, memory
// hierarchy MSHR/cache/channel invariants, and the CPI-stack identity
// (every sub-core's attributed cycles sum exactly to the device cycles).
// Read-only; an empty result is a healthy device. The MSHR law holds
// after the heartbeat's Retire(g.cycle), so call it at a heartbeat (the
// auditor's own call site).
func (g *GPU) AuditCheck() []audit.Violation {
	var vs []audit.Violation
	for _, sm := range g.sms {
		vs = append(vs, sm.Audit()...)
	}
	vs = append(vs, g.hier.Audit(g.cycle)...)
	if err := g.run.CheckCPI(); err != nil {
		vs = append(vs, audit.Violationf("cpi", "device", "%v", err))
	}
	return vs
}

// ArmCorruptionForTest schedules a seeded state corruption of the given
// kind ("scoreboard", "lease", "mshr", or "readyset") to be applied at the next
// heartbeat — mid-kernel, exactly where real corruption would strike —
// so tests can prove the armed auditor turns it into an AuditError.
// Never call outside tests.
func (g *GPU) ArmCorruptionForTest(kind string) {
	g.corruptKind = kind
}

// applyCorruption performs the armed test corruption. Scoreboard
// corruption needs an active warp; it stays armed until one exists.
func (g *GPU) applyCorruption() {
	switch g.corruptKind {
	case "scoreboard":
		for _, sm := range g.sms {
			if sm.CorruptScoreboardForTest() {
				g.corruptKind = ""
				return
			}
		}
	case "lease":
		g.sms[0].CorruptLeaseForTest()
		g.corruptKind = ""
	case "mshr":
		g.hier.CorruptMSHRForTest(g.cycle)
		g.corruptKind = ""
	case "readyset":
		g.sms[0].CorruptReadySetForTest()
		g.corruptKind = ""
	default:
		panic(fmt.Sprintf("gpu: unknown test corruption kind %q", g.corruptKind))
	}
}
