package mem

import (
	"math"

	"repro/internal/config"
	"repro/internal/isa"
)

// bwChannel models a bandwidth-limited service point (the L2 crossbar or
// the DRAM channels) as a single queue: each transaction occupies the
// channel for lineBytes/bytesPerCycle cycles and waits behind earlier
// traffic.
type bwChannel struct {
	nextFree    int64
	cycPerLine  int64
	fracNum     int64 // fractional accumulation when bytes/cycle > line
	fracDen     int64
	fracPending int64
}

func newBWChannel(bytesPerCycle, lineBytes int) *bwChannel {
	ch := &bwChannel{}
	if bytesPerCycle <= 0 {
		bytesPerCycle = 1
	}
	if lineBytes >= bytesPerCycle {
		ch.cycPerLine = int64(lineBytes / bytesPerCycle)
		if lineBytes%bytesPerCycle != 0 {
			ch.cycPerLine++
		}
	} else {
		// Several lines fit in one cycle: accumulate fractional service.
		ch.cycPerLine = 0
		ch.fracNum = int64(lineBytes)
		ch.fracDen = int64(bytesPerCycle)
	}
	return ch
}

// serve books one line transaction at time now and returns the cycle the
// transaction completes service (excluding fixed latency).
func (ch *bwChannel) serve(now int64) int64 {
	if ch.nextFree < now {
		ch.nextFree = now
		ch.fracPending = 0
	}
	if ch.cycPerLine > 0 {
		ch.nextFree += ch.cycPerLine
		return ch.nextFree
	}
	ch.fracPending += ch.fracNum
	for ch.fracPending >= ch.fracDen {
		ch.fracPending -= ch.fracDen
		ch.nextFree++
	}
	// Completion contract (matching the integral path, which returns the
	// cycle the line finishes draining): a line ending exactly on a cycle
	// boundary (fracPending == 0) completes at nextFree; a line ending
	// mid-cycle drains during cycle nextFree+1. The historical
	// unconditional nextFree+1 over-charged every boundary-aligned
	// fractional transaction by one cycle.
	if ch.fracPending == 0 {
		return ch.nextFree
	}
	return ch.nextFree + 1
}

// mshr tracks outstanding line fills so that misses to an in-flight line
// merge instead of consuming bandwidth twice.
type mshr struct {
	pending map[uint64]int64 // line -> completion cycle
}

func newMSHR() *mshr {
	return &mshr{pending: make(map[uint64]int64)}
}

func (m *mshr) lookup(line uint64, now int64) (int64, bool) {
	done, ok := m.pending[line]
	if !ok {
		return 0, false
	}
	if done <= now {
		delete(m.pending, line)
		return 0, false
	}
	return done, true
}

func (m *mshr) insert(line uint64, done int64) {
	m.pending[line] = done
}

// retire deletes every entry whose fill completed at or before now. No
// access stamped at or after now can merge with such an entry (lookup
// would discard it), so retiring changes no completion cycle.
func (m *mshr) retire(now int64) {
	//simlint:allow determinism -- per-entry deletion is order-independent
	for line, done := range m.pending {
		if done <= now {
			delete(m.pending, line)
		}
	}
}

// Hierarchy is the full memory system: one L1 per SM, a shared L2, and
// DRAM. It is deliberately latency/bandwidth-analytic rather than
// event-driven: each access returns its completion cycle immediately, with
// queueing delays derived from channel occupancy. This keeps 112-app
// sweeps fast while preserving the relative pressure the paper's
// workloads exert.
type Hierarchy struct {
	cfg  config.GPU
	l1   []*Cache
	l1m  []*mshr
	l2   *Cache
	l2m  *mshr
	l2ch *bwChannel
	drch *bwChannel

	// L1HitLatency is the load-use latency on an L1 hit (Volta ~28).
	L1HitLatency int64
}

// NewHierarchy builds the memory system for a configuration.
func NewHierarchy(cfg config.GPU) *Hierarchy {
	h := &Hierarchy{
		cfg:          cfg,
		l2:           NewCache(cfg.L2KB, cfg.L2Assoc, cfg.LineBytes),
		l2m:          newMSHR(),
		l2ch:         newBWChannel(cfg.L2BytesPerCycle, cfg.LineBytes),
		drch:         newBWChannel(cfg.DRAMBytesPerCycle, cfg.LineBytes),
		L1HitLatency: 28,
	}
	for i := 0; i < cfg.NumSMs; i++ {
		h.l1 = append(h.l1, NewCache(cfg.L1KBPerSM, cfg.L1Assoc, cfg.LineBytes))
		h.l1m = append(h.l1m, newMSHR())
	}
	return h
}

// L1 returns SM sm's L1 cache (for stats).
func (h *Hierarchy) L1(sm int) *Cache { return h.l1[sm] }

// L2Cache returns the shared L2 (for stats).
func (h *Hierarchy) L2Cache() *Cache { return h.l2 }

// AccessGlobal performs one 128-byte-line global access for SM sm at the
// given cycle and returns the cycle the data is available to the warp.
// Stores return the cycle the store is accepted (fire-and-forget).
func (h *Hierarchy) AccessGlobal(sm int, addr uint64, write bool, now int64) int64 {
	l1 := h.l1[sm]
	line := l1.LineOf(addr)
	if write {
		// Write-through: consume L2 bandwidth; the warp does not wait.
		h.l2.Access(addr, true)
		h.l2ch.serve(now)
		return now + 1
	}
	// A line with an in-flight fill reads as present in the tag array
	// (allocate-on-miss) but its data arrives with the fill: merge first.
	if done, ok := h.l1m[sm].lookup(line, now); ok {
		l1.Access(addr, false) // touch LRU; counts as a hit-under-miss
		return done
	}
	if l1.Access(addr, false) {
		return now + h.L1HitLatency
	}
	done := h.accessL2(addr, now+h.L1HitLatency)
	h.l1m[sm].insert(line, done)
	return done
}

func (h *Hierarchy) accessL2(addr uint64, now int64) int64 {
	line := h.l2.LineOf(addr)
	serveDone := h.l2ch.serve(now)
	if h.l2.Access(addr, false) {
		return serveDone + int64(h.cfg.L2Latency)
	}
	if done, ok := h.l2m.lookup(line, now); ok {
		return done
	}
	dramDone := h.drch.serve(serveDone + int64(h.cfg.L2Latency))
	done := dramDone + int64(h.cfg.DRAMLatency)
	h.l2m.insert(line, done)
	return done
}

// NeverCycle is the NextEvent sentinel for "no intrinsic future event":
// any real event cycle compares smaller.
const NeverCycle = int64(math.MaxInt64)

// Retire prunes completed fills from every MSHR. now must be the device
// cycle: every later access is stamped at or after it. An access
// timestamp is not a safe bound, because accesses from different SMs
// reach the L2 stamped out of order, and pruning at one could drop a
// fill that an earlier-stamped access would still merge with. The device
// calls Retire once per heartbeat, which both the ticked and the
// fast-forward paths reach at the same cycles, so the pending maps are
// identical either way.
func (h *Hierarchy) Retire(now int64) {
	h.l2m.retire(now)
	for _, m := range h.l1m {
		m.retire(now)
	}
}

// Transactions returns how many 128-byte line transactions a warp-wide
// access with the given trait generates — the coalescing model.
func Transactions(t isa.MemTrait, lineBytes int) int {
	switch t.Pattern {
	case isa.PatBroadcast:
		return 1
	case isa.PatCoalesced:
		// 32 threads x 4 bytes = 128 bytes = one line (or two if the line
		// is smaller).
		n := isa.WarpSize * 4 / lineBytes
		if n < 1 {
			n = 1
		}
		return n
	case isa.PatStrided:
		stride := int(t.StrideBytes)
		if stride < 4 {
			stride = 4
		}
		span := stride * isa.WarpSize
		n := span / lineBytes
		if span%lineBytes != 0 {
			n++
		}
		if n > isa.WarpSize {
			n = isa.WarpSize
		}
		if n < 1 {
			n = 1
		}
		return n
	case isa.PatRandom:
		// Each thread touches an unrelated line, bounded by the access's
		// divergence degree and the footprint.
		n := isa.WarpSize
		if t.Divergence > 0 && int(t.Divergence) < n {
			n = int(t.Divergence)
		}
		if t.Footprint > 0 {
			lines := int(t.Footprint) / lineBytes
			if lines < 1 {
				lines = 1
			}
			if lines < n {
				n = lines
			}
		}
		return n
	default:
		return 1
	}
}
