package mem

import (
	"fmt"

	"repro/internal/audit"
)

// Audit re-derives the memory system's conservation laws at device cycle
// now and reports every breach (docs/ROBUSTNESS.md). It is read-only and
// expects to run after the heartbeat's Retire(now).
func (h *Hierarchy) Audit(now int64) []audit.Violation {
	var vs []audit.Violation
	for i, m := range h.l1m {
		vs = m.auditInto(vs, fmt.Sprintf("l1m[%d]", i), now)
	}
	vs = h.l2m.auditInto(vs, "l2m", now)
	vs = h.l2ch.auditInto(vs, "l2ch")
	vs = h.drch.auditInto(vs, "drch")
	for i, c := range h.l1 {
		vs = c.auditInto(vs, fmt.Sprintf("l1[%d]", i))
	}
	return h.l2.auditInto(vs, "l2")
}

// auditInto checks that every pending fill completes after now: Retire(now)
// has pruned the completed ones, so a survivor at or before now means the
// map was corrupted or the pruning skipped an entry. The earliest offender
// is order-independent, so the direct iteration stays deterministic.
func (m *mshr) auditInto(vs []audit.Violation, where string, now int64) []audit.Violation {
	stale, earliest := 0, NeverCycle
	//simlint:allow determinism -- count and min over the map are order-independent
	for _, done := range m.pending {
		if done <= now {
			stale++
			if done < earliest {
				earliest = done
			}
		}
	}
	if stale > 0 {
		vs = append(vs, audit.Violationf("mshr", where,
			"%d of %d pending fills completed at or before cycle %d (earliest %d) yet survived Retire",
			stale, len(m.pending), now, earliest))
	}
	return vs
}

func (c *Cache) auditInto(vs []audit.Violation, where string) []audit.Violation {
	for i, tag := range c.tags {
		if tag == 0 {
			continue
		}
		set := i / c.assoc
		if int((tag-1)%uint64(c.sets)) != set {
			vs = append(vs, audit.Violationf("cache", where,
				"way %d holds line %d, which maps to set %d not set %d — tag array corrupt",
				i, tag-1, (tag-1)%uint64(c.sets), set))
		}
	}
	for i, u := range c.use {
		if u > c.clock {
			vs = append(vs, audit.Violationf("cache", where,
				"way %d LRU stamp %d is ahead of the cache clock %d", i, u, c.clock))
		}
	}
	if c.Hits < 0 || c.Misses < 0 {
		vs = append(vs, audit.Violationf("cache", where,
			"negative lookup counters hits=%d misses=%d", c.Hits, c.Misses))
	}
	return vs
}

func (ch *bwChannel) auditInto(vs []audit.Violation, where string) []audit.Violation {
	switch {
	case ch.fracPending < 0:
		vs = append(vs, audit.Violationf("channel", where, "negative fractional backlog %d", ch.fracPending))
	case ch.cycPerLine > 0 && ch.fracPending != 0:
		vs = append(vs, audit.Violationf("channel", where,
			"integral channel carries fractional backlog %d", ch.fracPending))
	case ch.fracDen > 0 && ch.fracPending >= ch.fracDen:
		vs = append(vs, audit.Violationf("channel", where,
			"fractional backlog %d not reduced below denominator %d", ch.fracPending, ch.fracDen))
	}
	return vs
}

// CorruptMSHRForTest seeds a guaranteed-detectable MSHR inconsistency (a
// pending fill that completes at now, as if Retire(now) had missed it) for
// the auditor's injected-corruption tests. Never call outside tests.
func (h *Hierarchy) CorruptMSHRForTest(now int64) {
	h.l1m[0].pending[^uint64(0)] = now
}
