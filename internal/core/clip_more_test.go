package core

import (
	"testing"

	"clip/internal/cpu"
	"clip/internal/mem"
	"clip/internal/prefetch"
)

func TestScaleRoundsToPowerOfTwo(t *testing.T) {
	cfg := DefaultConfig()
	for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
		sc := cfg.Scale(f)
		if err := sc.Validate(); err != nil {
			t.Fatalf("scale %v invalid: %v", f, err)
		}
	}
	// Degenerate factor clamps to at least one set.
	tiny := cfg.Scale(0.001)
	if tiny.FilterSets < 1 || tiny.PredictorSets < 1 {
		t.Fatalf("scale floor violated: %+v", tiny)
	}
}

func TestUtilityBufferWrapsAround(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UtilityEntries = 4 // smaller than the exploration quota: must wrap
	c := MustNew(cfg)
	ip := uint64(0x31)
	for i := 0; i < 8; i++ {
		c.OnLoadComplete(critEvent(ip, 0x4000, 0, 0))
	}
	// Issue more prefetches than the buffer holds; the CAM keeps the most
	// recent UtilityEntries.
	issued := 0
	for i := 0; i < exploreQuota; i++ {
		if ok, _ := c.Allow(cand(ip, mem.Addr(0x100000+i*64))); ok {
			issued++
		}
	}
	if issued <= cfg.UtilityEntries {
		t.Fatalf("issued %d, need more than %d to wrap", issued, cfg.UtilityEntries)
	}
	// The oldest prefetched line must have been overwritten: no hit credit.
	before := c.Stats().UtilityHits
	c.OnAccess(0x100000, true, 1) // line of the very first prefetch
	if c.Stats().UtilityHits != before {
		t.Fatal("stale utility entry survived wraparound")
	}
}

func TestWindowHalvesCounts(t *testing.T) {
	c := MustNew(DefaultConfig())
	ip := uint64(0x32)
	for i := 0; i < 8; i++ {
		c.OnLoadComplete(critEvent(ip, 0x5000, 0, 0))
	}
	// Issue 4 exploration prefetches, hit 4: rate 1.0.
	for i := 0; i < 4; i++ {
		if ok, _ := c.Allow(cand(ip, mem.Addr(0x200000+i*64))); ok {
			c.OnAccess(mem.Addr(0x200000+i*64), true, uint64(i))
		}
	}
	e := c.filterLookup(ip)
	if e == nil || e.issueCount == 0 {
		t.Fatal("filter entry missing issue counts")
	}
	issueBefore, hitBefore := e.issueCount, e.hitCount
	// Close the window.
	for m := uint64(0); m < c.cfg.ExplorationWindow; m++ {
		c.OnAccess(0xFEE000, false, 100+m)
	}
	if e.issueCount != issueBefore/2 || e.hitCount != hitBefore/2 {
		t.Fatalf("hysteresis halving wrong: issue %d->%d hit %d->%d",
			issueBefore, e.issueCount, hitBefore, e.hitCount)
	}
	if !e.critAcc {
		t.Fatal("perfect hit rate should set the critical-and-accurate bit")
	}
}

func TestCounterInitAtHalf(t *testing.T) {
	c := MustNew(DefaultConfig())
	if counterInit != 4 || counterMax != 7 {
		t.Fatalf("3-bit counter init/max = %d/%d, want 4/7", counterInit, counterMax)
	}
	if !c.msbSet(4) || c.msbSet(3) {
		t.Fatal("MSB boundary wrong for 3-bit counter")
	}
}

func TestPredictorNRUReplacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PredictorSets, cfg.PredictorWays = 1, 2 // single set
	c := MustNew(cfg)
	// Three distinct signatures into a 2-way set: someone gets evicted but
	// the structure stays consistent and all lookups allocate.
	for i := 0; i < 3; i++ {
		ev := critEvent(uint64(0x40+i), mem.Addr(0x9000+i*0x1000), 0, 0)
		c.OnLoadComplete(ev)
	}
	valid := 0
	for i := range c.pred {
		if c.pred[i].valid {
			valid++
		}
	}
	if valid != 2 {
		t.Fatalf("predictor valid entries = %d, want 2 (full set)", valid)
	}
}

func TestDropReasonsAreDisjoint(t *testing.T) {
	c := MustNew(DefaultConfig())
	// Unknown IP.
	c.Allow(cand(0x1, 0x100))
	// Known but low count.
	c.OnLoadComplete(critEvent(0x2, 0x200, 0, 0))
	c.Allow(cand(0x2, 0x240))
	s := c.Stats()
	total := s.Allowed + s.TotalDropped()
	if total != 2 {
		t.Fatalf("decisions %d != prefetches 2", total)
	}
	if s.Dropped[DropNotShortlisted] != 1 || s.Dropped[DropLowCritCount] != 1 {
		t.Fatalf("drop reasons wrong: %v", s.Dropped)
	}
}

func TestPhaseResetClearsEverything(t *testing.T) {
	c := MustNew(DefaultConfig())
	for i := 0; i < 8; i++ {
		c.OnLoadComplete(critEvent(0x50, 0xA000, 0, 0))
	}
	c.Allow(cand(0x50, 0xA040))
	c.phaseReset()
	if c.filterLookup(0x50) != nil {
		t.Fatal("filter survived phase reset")
	}
	for i := range c.pred {
		if c.pred[i].valid {
			t.Fatal("predictor survived phase reset")
		}
	}
	if c.utilValid.Count() != 0 {
		t.Fatal("utility buffer survived phase reset")
	}
}

func TestStorageScalesWithConfig(t *testing.T) {
	base := TotalStorageBytes(DefaultConfig(), 512)
	quad := TotalStorageBytes(DefaultConfig().Scale(4), 512)
	if quad <= base {
		t.Fatal("4x tables should cost more storage")
	}
	bigROB := TotalStorageBytes(DefaultConfig(), 1024)
	if bigROB <= base {
		t.Fatal("larger ROB should cost more storage (miss-level flags)")
	}
}

// Interface conformance: the sim wires CLIP against cpu/prefetch types.
var _ = func() {
	c := MustNew(DefaultConfig())
	c.OnLoadComplete(&cpu.LoadEvent{})
	c.Allow(prefetch.Candidate{})
}
