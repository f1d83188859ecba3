package tlb

import (
	"testing"

	"clip/internal/mem"
)

func TestConfigValidate(t *testing.T) {
	if (Config{Entries: 0, Ways: 4}).Validate() == nil {
		t.Fatal("zero entries accepted")
	}
	if (Config{Entries: 65, Ways: 4}).Validate() == nil {
		t.Fatal("non-divisible geometry accepted")
	}
	if (Config{Entries: 24, Ways: 4}).Validate() == nil {
		t.Fatal("non-pow2 sets accepted")
	}
	if (Config{Entries: 64, Ways: 4}).Validate() != nil {
		t.Fatal("valid geometry rejected")
	}
}

func TestDefaultConfigScales(t *testing.T) {
	full := DefaultConfig(1)
	if full.DTLB.Entries != 64 || full.STLB.Entries != 2048 {
		t.Fatalf("full-scale config wrong: %+v", full)
	}
	scaled := DefaultConfig(8)
	if scaled.DTLB.Entries != full.DTLB.Entries {
		t.Fatal("DTLB must not scale: it covers concurrent streams, not reach")
	}
	if scaled.STLB.Entries >= full.STLB.Entries {
		t.Fatal("STLB did not scale down")
	}
	if err := scaled.DTLB.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := scaled.STLB.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstAccessWalksThenHits(t *testing.T) {
	h := MustNew(DefaultConfig(1))
	addr := mem.Addr(0x123456)
	if d := h.Translate(addr); d == 0 {
		t.Fatal("first access should walk")
	}
	if d := h.Translate(addr); d != 0 {
		t.Fatalf("second access delayed %d cycles; DTLB should hit", d)
	}
	s := h.Stats()
	if s.Walks != 1 || s.DTLBHits != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSTLBBacksDTLB(t *testing.T) {
	cfg := DefaultConfig(1)
	h := MustNew(cfg)
	// Touch enough distinct pages to overflow the 64-entry DTLB but not the
	// 2048-entry STLB, then revisit the first page: STLB hit (8 cycles).
	for i := 0; i < 512; i++ {
		h.Translate(mem.Addr(i * mem.PageBytes))
	}
	d := h.Translate(mem.Addr(0))
	if d != cfg.STLB.Latency {
		t.Fatalf("revisit delay %d, want STLB latency %d", d, cfg.STLB.Latency)
	}
}

func TestWalkCostIncludesSTLBLatency(t *testing.T) {
	cfg := DefaultConfig(1)
	h := MustNew(cfg)
	d := h.Translate(0x9999000)
	if d != cfg.STLB.Latency+cfg.WalkLatency {
		t.Fatalf("walk delay %d, want %d", d, cfg.STLB.Latency+cfg.WalkLatency)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Single-set (fully associative) 2-way DTLB: every page shares the set,
	// so touching pages 0,2,4 must evict the least-recently-used page 0
	// while 2 and 4 survive.
	h := MustNew(HierarchyConfig{
		DTLB:        Config{Entries: 2, Ways: 2, Latency: 1},
		STLB:        Config{Entries: 64, Ways: 4, Latency: 8},
		WalkLatency: 50,
	})
	for _, p := range []uint64{0, 2, 4} {
		h.Translate(mem.Addr(p * mem.PageBytes))
	}
	if d := h.Translate(mem.Addr(2 * mem.PageBytes)); d != 0 {
		t.Fatalf("page 2 should still be in DTLB, delay %d", d)
	}
	if d := h.Translate(mem.Addr(4 * mem.PageBytes)); d != 0 {
		t.Fatalf("page 4 should still be in DTLB, delay %d", d)
	}
	if d := h.Translate(mem.Addr(0)); d == 0 {
		t.Fatal("page 0 should have been evicted from the DTLB")
	}
}

func TestDTLBHitRateOnLoop(t *testing.T) {
	h := MustNew(DefaultConfig(1))
	// A loop over 8 pages: after the cold pass everything hits.
	for pass := 0; pass < 100; pass++ {
		for p := 0; p < 8; p++ {
			h.Translate(mem.Addr(p * mem.PageBytes))
		}
	}
	if hr := h.Stats().DTLBHitRate(); hr < 0.98 {
		t.Fatalf("loop DTLB hit rate %v < 0.98", hr)
	}
}

// TestRepeatHitsMatchesTranslate: RepeatHits(addr, n) must leave the
// hierarchy exactly where n DTLB-hitting Translate(addr) calls leave it —
// counters, LRU clock and the entry's stamp (so later victim choices agree).
func TestRepeatHitsMatchesTranslate(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DTLB = Config{Entries: 4, Ways: 2, Latency: 1} // small: stamps decide evictions
	a, b := MustNew(cfg), MustNew(cfg)
	page := func(i int) mem.Addr { return mem.Addr(i) << mem.PageShift }
	warm := func(h *Hierarchy) {
		for i := 0; i < 6; i++ {
			h.Translate(page(i))
		}
	}
	warm(a)
	warm(b)
	hot := page(5)
	if !a.DTLBResident(hot) {
		t.Fatal("most recent page is not DTLB-resident")
	}
	before := *a.Stats()
	if a.DTLBResident(page(100)) || *a.Stats() != before {
		t.Fatal("DTLBResident touched state or found a page never translated")
	}
	for i := 0; i < 7; i++ {
		if a.Translate(hot) != 0 {
			t.Fatal("repeat translation missed the DTLB")
		}
	}
	b.RepeatHits(hot, 7)
	// Drive both on: evictions depend on the stamps and the clock.
	for i := 6; i < 40; i++ {
		if da, db := a.Translate(page(i%9)), b.Translate(page(i%9)); da != db {
			t.Fatalf("translation %d diverges after bulk hits: %d vs %d", i, da, db)
		}
	}
	if *a.Stats() != *b.Stats() {
		t.Fatalf("stats diverge:\n per call: %+v\n bulk:     %+v", *a.Stats(), *b.Stats())
	}
	if a.dtlb.clock != b.dtlb.clock {
		t.Fatalf("LRU clocks diverge: %d vs %d", a.dtlb.clock, b.dtlb.clock)
	}
}
