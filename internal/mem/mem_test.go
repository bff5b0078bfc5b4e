package mem

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1, 2, 128) // 8 lines, 4 sets x 2 ways
	if c.Access(0, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0, false) {
		t.Error("second access missed")
	}
	if !c.Access(64, false) {
		t.Error("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits, c.Misses)
	}
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("HitRate = %v", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 2, 128) // 4 sets, 2 ways; set = line % 4
	// Three lines mapping to set 0: lines 0, 4, 8 (addresses 0, 512, 1024).
	c.Access(0, false)
	c.Access(512, false)
	c.Access(0, false)    // touch line 0 -> line 4 is LRU
	c.Access(1024, false) // evicts line 4
	if !c.Access(0, false) {
		t.Error("line 0 should have survived (MRU)")
	}
	if c.Access(512, false) {
		t.Error("line 4 should have been evicted")
	}
}

func TestCacheWriteNoAllocate(t *testing.T) {
	c := NewCache(1, 2, 128)
	if c.Access(0, true) {
		t.Error("write to cold line reported hit")
	}
	if c.Access(0, false) {
		t.Error("write must not allocate")
	}
	if c.Hits+c.Misses != 1 {
		t.Error("writes must not count in read hit/miss stats")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(1, 2, 128)
	c.Access(0, false)
	c.Flush()
	if c.Access(0, false) {
		t.Error("flush did not invalidate")
	}
	if c.Misses != 1 {
		t.Error("flush did not clear counters")
	}
}

func TestCacheDegenerateShapes(t *testing.T) {
	c := NewCache(0, 0, 128) // clamps to 1 set, 1 way
	c.Access(0, false)
	if !c.Access(0, false) {
		t.Error("1-entry cache must still hit")
	}
}

func smallCfg() config.GPU {
	g := config.VoltaV100()
	g.NumSMs = 2
	return g
}

func TestHierarchyL1HitLatency(t *testing.T) {
	h := NewHierarchy(smallCfg())
	first := h.AccessGlobal(0, 0, false, 0)
	if first <= h.L1HitLatency {
		t.Errorf("cold access done at %d, want beyond L1 latency", first)
	}
	hit := h.AccessGlobal(0, 0, false, first)
	if hit != first+h.L1HitLatency {
		t.Errorf("hit done at %d, want %d", hit, first+h.L1HitLatency)
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h := NewHierarchy(smallCfg())
	a := h.AccessGlobal(0, 4096, false, 0)
	b := h.AccessGlobal(0, 4096+64, false, 1) // same 128B line, outstanding
	if b != a {
		t.Errorf("merged miss done at %d, want %d", b, a)
	}
}

// TestMSHRRetireInert pins Retire's contract: for random fills, no
// entry completing at or before now survives Retire(now), and every
// lookup(line, t) with t >= now answers the same before and after it.
// Each lookup runs on a fresh copy, since lookup itself prunes.
func TestMSHRRetireInert(t *testing.T) {
	const lines, horizon = 32, 128
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		kept := newMSHR()
		for i := 0; i < 64; i++ {
			kept.insert(uint64(rng.Intn(lines)), int64(rng.Intn(horizon)))
		}
		now := int64(rng.Intn(horizon))
		retired := &mshr{pending: maps.Clone(kept.pending)}
		retired.retire(now)
		for line, done := range retired.pending {
			if done <= now {
				t.Fatalf("trial %d: line %d completes at %d, kept past Retire(%d)", trial, line, done, now)
			}
		}
		for line := uint64(0); line < lines; line++ {
			for at := now; at <= horizon; at++ {
				wantDone, wantHit := (&mshr{pending: maps.Clone(kept.pending)}).lookup(line, at)
				gotDone, gotHit := (&mshr{pending: maps.Clone(retired.pending)}).lookup(line, at)
				if gotDone != wantDone || gotHit != wantHit {
					t.Fatalf("trial %d: lookup(%d, %d) after Retire(%d) = (%d, %v), want (%d, %v)",
						trial, line, at, now, gotDone, gotHit, wantDone, wantHit)
				}
			}
		}
	}
}

func TestHierarchyL2SharedAcrossSMs(t *testing.T) {
	h := NewHierarchy(smallCfg())
	done0 := h.AccessGlobal(0, 8192, false, 0)
	// SM 1 misses its own L1 but should hit the now-filled L2.
	done1 := h.AccessGlobal(1, 8192, false, done0)
	coldRef := h.AccessGlobal(0, 1<<20, false, done0)
	if done1-done0 >= coldRef-done0 {
		t.Errorf("L2 hit (%d cycles) not faster than DRAM path (%d cycles)", done1-done0, coldRef-done0)
	}
}

func TestHierarchyStoresDoNotBlock(t *testing.T) {
	h := NewHierarchy(smallCfg())
	if done := h.AccessGlobal(0, 0, true, 10); done != 11 {
		t.Errorf("store completed at %d, want 11", done)
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	g := smallCfg()
	g.DRAMBytesPerCycle = 16 // 8 cycles per 128B line
	g.L2BytesPerCycle = 1 << 20
	h := NewHierarchy(g)
	// Saturate: many distinct-line misses at the same cycle must finish at
	// increasing times.
	var prev int64
	for i := 0; i < 8; i++ {
		done := h.AccessGlobal(0, uint64(i)<<20, false, 0)
		if i > 0 && done <= prev {
			t.Fatalf("request %d done at %d, not after previous %d", i, done, prev)
		}
		prev = done
	}
}

// TestBWChannelServeContract pins serve's completion contract on both
// paths: the returned cycle is when the line finishes draining. On the
// fractional path (bytes/cycle > line) a transaction ending exactly on a
// cycle boundary completes at nextFree — the historical unconditional
// +1 over-charged every boundary-aligned transaction.
func TestBWChannelServeContract(t *testing.T) {
	cases := []struct {
		name          string
		bytesPerCycle int
		want          []int64 // serve results for back-to-back calls at now=0
	}{
		// Integral path: 128/16 = 8 cycles per line.
		{"integral-8cyc", 16, []int64{8, 16, 24}},
		// Integral with remainder: ceil(128/100) = 2 cycles per line.
		{"integral-roundup", 100, []int64{2, 4}},
		// Fractional, 4 lines/cycle: the 4th line lands exactly on the
		// cycle-1 boundary and completes there, not at 2.
		{"fractional-4-per-cycle", 512, []int64{1, 1, 1, 1, 2, 2, 2, 2}},
		// Fractional, 3 lines/cycle.
		{"fractional-3-per-cycle", 384, []int64{1, 1, 1, 2}},
		// The V100 L2 shape: 1280 B/cycle, 10 lines per cycle.
		{"fractional-v100-l2", 1280, []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := newBWChannel(tc.bytesPerCycle, 128)
			var prev int64
			for i, want := range tc.want {
				got := ch.serve(0)
				if got != want {
					t.Errorf("serve #%d = %d, want %d", i, got, want)
				}
				if got < prev {
					t.Errorf("serve #%d = %d went backwards from %d", i, got, prev)
				}
				prev = got
			}
		})
	}
}

// An idle gap resets fractional accumulation: a channel that has fully
// drained must not carry partial-cycle credit into later traffic.
func TestBWChannelIdleResetsFraction(t *testing.T) {
	ch := newBWChannel(512, 128)
	if got := ch.serve(0); got != 1 {
		t.Fatalf("first line done at %d, want 1", got)
	}
	// Long idle gap; a fresh line at cycle 10 drains during cycle 11 and
	// must not complete early on the stale fracPending from cycle 0.
	if got := ch.serve(10); got != 11 {
		t.Errorf("post-idle line done at %d, want 11", got)
	}
}

func TestBWChannelFractional(t *testing.T) {
	// 512 B/cycle channel with 128 B lines: 4 lines per cycle.
	ch := newBWChannel(512, 128)
	var last int64
	for i := 0; i < 8; i++ {
		last = ch.serve(0)
	}
	// 8 lines at 4/cycle -> drains within ~2 cycles.
	if last > 3 {
		t.Errorf("8 lines drained at %d, want <= 3", last)
	}
}

func TestTransactions(t *testing.T) {
	const line = 128
	cases := []struct {
		name string
		t    isa.MemTrait
		want int
	}{
		{"coalesced", isa.MemTrait{Pattern: isa.PatCoalesced}, 1},
		{"broadcast", isa.MemTrait{Pattern: isa.PatBroadcast}, 1},
		{"stride8", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 8}, 2},
		{"stride128", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 128}, 32},
		{"stride-large", isa.MemTrait{Pattern: isa.PatStrided, StrideBytes: 4096}, 32},
		{"random", isa.MemTrait{Pattern: isa.PatRandom, Footprint: 1 << 20}, 32},
		{"random-small", isa.MemTrait{Pattern: isa.PatRandom, Footprint: 512}, 4},
		{"none", isa.MemTrait{}, 1},
	}
	for _, c := range cases {
		if got := Transactions(c.t, line); got != c.want {
			t.Errorf("%s: Transactions = %d, want %d", c.name, got, c.want)
		}
	}
}

// Property: transactions are always within [1, 32] for any trait.
func TestTransactionsBoundsProperty(t *testing.T) {
	f := func(pat uint8, foot uint32, stride uint32) bool {
		tr := isa.MemTrait{Pattern: isa.Pattern(pat % 5), Footprint: foot, StrideBytes: stride}
		n := Transactions(tr, 128)
		return n >= 1 && n <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: completion time is never before request time and is
// monotonically consistent for back-to-back same-SM accesses.
func TestHierarchyCausalityProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		h := NewHierarchy(smallCfg())
		now := int64(0)
		for _, a := range addrs {
			done := h.AccessGlobal(0, uint64(a), false, now)
			if done <= now {
				return false
			}
			now++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
