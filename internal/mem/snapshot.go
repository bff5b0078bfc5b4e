package mem

import (
	"fmt"
	"sort"

	"repro/internal/snapshot"
)

// Snapshot field manifests (checked by TestSnapshotCoverage against the
// real structs via snapshot.Coverage): every field is either encoded below
// or carries an explicit reason it need not be. Adding a field without
// updating a manifest fails the completeness test; changing what is
// encoded requires a snapshot.Version bump.
var (
	hierarchyManifest = map[string]string{
		"cfg":          "skip: restore target is built from the same validated config",
		"l1":           "encoded",
		"l1m":          "encoded",
		"l2":           "encoded",
		"l2m":          "encoded",
		"l2ch":         "encoded",
		"drch":         "encoded",
		"L1HitLatency": "encoded",
	}
	cacheManifest = map[string]string{
		"sets":      "skip: derived from config at construction",
		"assoc":     "skip: derived from config at construction",
		"lineShift": "skip: derived from config at construction",
		"tags":      "encoded",
		"use":       "encoded",
		"clock":     "encoded",
		"Hits":      "encoded",
		"Misses":    "encoded",
	}
	mshrManifest = map[string]string{
		"pending": "encoded (sorted by line for byte-determinism)",
	}
	bwChannelManifest = map[string]string{
		"nextFree":    "encoded",
		"cycPerLine":  "skip: derived from config at construction",
		"fracNum":     "skip: derived from config at construction",
		"fracDen":     "skip: derived from config at construction",
		"fracPending": "encoded",
	}
)

// EncodeState serializes the memory system's mutable state: cache tag
// arrays and LRU clocks, outstanding MSHR fills, and bandwidth-channel
// occupancy. Structural shape (set counts, channel rates) is derived from
// the configuration and re-created on restore.
func (h *Hierarchy) EncodeState(e *snapshot.Encoder) {
	e.Section("mem")
	e.Varint(h.L1HitLatency)
	e.Uvarint(uint64(len(h.l1)))
	for _, c := range h.l1 {
		c.encodeState(e)
	}
	for _, m := range h.l1m {
		m.encodeState(e)
	}
	h.l2.encodeState(e)
	h.l2m.encodeState(e)
	h.l2ch.encodeState(e)
	h.drch.encodeState(e)
}

// RestoreState decodes into a hierarchy freshly built from the same
// configuration, validating shape so a snapshot from a different machine
// fails loudly.
func (h *Hierarchy) RestoreState(d *snapshot.Decoder) error {
	d.Section("mem")
	h.L1HitLatency = d.Varint()
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(n) != len(h.l1) {
		return fmt.Errorf("mem: snapshot has %d L1 caches, this config has %d", n, len(h.l1))
	}
	for _, c := range h.l1 {
		if err := c.restoreState(d); err != nil {
			return err
		}
	}
	for _, m := range h.l1m {
		if err := m.restoreState(d); err != nil {
			return err
		}
	}
	if err := h.l2.restoreState(d); err != nil {
		return err
	}
	if err := h.l2m.restoreState(d); err != nil {
		return err
	}
	if err := h.l2ch.restoreState(d); err != nil {
		return err
	}
	return h.drch.restoreState(d)
}

func (c *Cache) encodeState(e *snapshot.Encoder) {
	e.Section("cache")
	e.Uvarint(uint64(len(c.tags)))
	for _, t := range c.tags {
		e.Uvarint(t)
	}
	for _, u := range c.use {
		e.Varint(u)
	}
	e.Varint(c.clock)
	e.Varint(c.Hits)
	e.Varint(c.Misses)
}

func (c *Cache) restoreState(d *snapshot.Decoder) error {
	d.Section("cache")
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	if int(n) != len(c.tags) {
		return fmt.Errorf("mem: snapshot cache has %d ways, this config has %d", n, len(c.tags))
	}
	for i := range c.tags {
		c.tags[i] = d.Uvarint()
	}
	for i := range c.use {
		c.use[i] = d.Varint()
	}
	c.clock = d.Varint()
	c.Hits = d.Varint()
	c.Misses = d.Varint()
	return d.Err()
}

func (m *mshr) encodeState(e *snapshot.Encoder) {
	e.Section("mshr")
	lines := make([]uint64, 0, len(m.pending))
	//simlint:allow determinism -- keys are collected then sorted before encoding
	for line := range m.pending {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.Uvarint(uint64(len(lines)))
	for _, line := range lines {
		e.Uvarint(line)
		e.Varint(m.pending[line])
	}
}

func (m *mshr) restoreState(d *snapshot.Decoder) error {
	d.Section("mshr")
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	m.pending = make(map[uint64]int64, n)
	for i := uint64(0); i < n; i++ {
		line := d.Uvarint()
		m.pending[line] = d.Varint()
	}
	return d.Err()
}

func (ch *bwChannel) encodeState(e *snapshot.Encoder) {
	e.Section("bwch")
	e.Varint(ch.nextFree)
	e.Varint(ch.fracPending)
}

func (ch *bwChannel) restoreState(d *snapshot.Decoder) error {
	d.Section("bwch")
	ch.nextFree = d.Varint()
	ch.fracPending = d.Varint()
	if err := d.Err(); err != nil {
		return err
	}
	if ch.fracPending < 0 || (ch.fracDen > 0 && ch.fracPending >= ch.fracDen) ||
		(ch.cycPerLine > 0 && ch.fracPending != 0) {
		return fmt.Errorf("mem: snapshot channel fracPending %d out of range for this config", ch.fracPending)
	}
	return nil
}
