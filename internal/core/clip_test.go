package core

import (
	"reflect"
	"testing"

	"clip/internal/cpu"
	"clip/internal/mem"
	"clip/internal/prefetch"
)

func critEvent(ip uint64, addr mem.Addr, bh, ch uint32) *cpu.LoadEvent {
	return &cpu.LoadEvent{IP: ip, Addr: addr, ServedBy: mem.LevelDRAM,
		StalledHead: true, BranchHist: bh, CritHist: ch, Latency: 300}
}

func benignEvent(ip uint64, addr mem.Addr, bh, ch uint32) *cpu.LoadEvent {
	return &cpu.LoadEvent{IP: ip, Addr: addr, ServedBy: mem.LevelL1,
		StalledHead: false, BranchHist: bh, CritHist: ch, Latency: 5}
}

func cand(ip uint64, addr mem.Addr) prefetch.Candidate {
	return prefetch.Candidate{Addr: addr, TriggerIP: ip, FillLevel: mem.LevelL1}
}

// qualify trains CLIP until ip is critical-and-accurate for the given
// addresses: stalls to cross the criticality threshold, then a full window
// with perfect per-IP hit rate.
func qualify(t *testing.T, c *CLIP, ip uint64, addrs []mem.Addr) {
	t.Helper()
	// Stage I: cross criticality count threshold.
	for i := 0; i < 8; i++ {
		for _, a := range addrs {
			c.OnLoadComplete(critEvent(ip, a, 0, 0))
		}
	}
	// Issue prefetches under the exploration quota and hit them all.
	cycle := uint64(1000)
	for w := 0; w < 3; w++ {
		for i := 0; i < exploreQuota; i++ {
			a := addrs[i%len(addrs)]
			ok, _ := c.Allow(cand(ip, a))
			if !ok && w == 0 && i == 0 {
				t.Fatal("exploration prefetch rejected for qualified IP")
			}
			if ok {
				c.OnAccess(a, true, cycle) // demand hits the prefetched line
			}
			cycle += 10
		}
		// Close the window: all window misses at once.
		for m := uint64(0); m < c.cfg.ExplorationWindow; m++ {
			c.OnAccess(0xDEAD000, false, cycle)
			cycle++
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.FilterSets = 0
	if bad.Validate() == nil {
		t.Fatal("zero filter sets accepted")
	}
	bad = good
	bad.PredictorSets = 100 // not a power of two
	if bad.Validate() == nil {
		t.Fatal("non-pow2 predictor sets accepted")
	}
	bad = good
	bad.HitRateThreshold = 1.5
	if bad.Validate() == nil {
		t.Fatal("hit rate > 1 accepted")
	}
	bad = good
	bad.ExplorationWindow = 0
	if bad.Validate() == nil {
		t.Fatal("zero window accepted")
	}
}

func TestScaleConfig(t *testing.T) {
	cfg := DefaultConfig()
	half := cfg.Scale(0.5)
	if half.FilterSets != 16 || half.PredictorSets != 64 {
		t.Fatalf("0.5x scale: %d/%d", half.FilterSets, half.PredictorSets)
	}
	quad := cfg.Scale(4)
	if quad.FilterSets != 128 || quad.PredictorSets != 512 {
		t.Fatalf("4x scale: %d/%d", quad.FilterSets, quad.PredictorSets)
	}
	if quad.Validate() != nil || half.Validate() != nil {
		t.Fatal("scaled configs invalid")
	}
}

func TestDropUnknownIP(t *testing.T) {
	c := MustNew(DefaultConfig())
	ok, crit := c.Allow(cand(0x999, 0x1000))
	if ok || crit {
		t.Fatal("prefetch for unknown IP must be dropped")
	}
	if c.Stats().Dropped[DropNotShortlisted] != 1 {
		t.Fatal("drop reason not recorded")
	}
}

func TestDropBelowCriticalityThreshold(t *testing.T) {
	c := MustNew(DefaultConfig())
	// One stall: below the threshold of 3 (2-bit count).
	c.OnLoadComplete(critEvent(0x10, 0x4000, 0, 0))
	ok, _ := c.Allow(cand(0x10, 0x4040))
	if ok {
		t.Fatal("prefetch allowed below criticality count threshold")
	}
	if c.Stats().Dropped[DropLowCritCount] != 1 {
		t.Fatal("wrong drop reason")
	}
}

func TestQualifiedIPPrefetchesWithCriticalFlag(t *testing.T) {
	c := MustNew(DefaultConfig())
	addrs := []mem.Addr{0x8000, 0x8040, 0x8080, 0x80C0}
	qualify(t, c, 0x20, addrs)
	// Predictor was trained on these (ip, addr) signatures with stalls.
	c.SetHistories(0, 0)
	ok, crit := c.Allow(cand(0x20, addrs[0]))
	if !ok {
		t.Fatalf("qualified prefetch dropped; drops=%v", c.Stats().Dropped)
	}
	if !crit {
		t.Fatal("surviving prefetch must carry the criticality flag")
	}
}

func TestPredictorMissDrops(t *testing.T) {
	c := MustNew(DefaultConfig())
	addrs := []mem.Addr{0x8000, 0x8040}
	qualify(t, c, 0x30, addrs)
	c.SetHistories(0, 0)
	// An address whose signature was never trained.
	ok, _ := c.Allow(cand(0x30, 0xFFF000))
	if ok {
		t.Fatal("prefetch for untrained signature must be dropped")
	}
	if c.Stats().Dropped[DropPredictorMiss] == 0 {
		t.Fatal("predictor-miss drop not recorded")
	}
}

func TestLowConfidenceDrops(t *testing.T) {
	c := MustNew(DefaultConfig())
	addrs := []mem.Addr{0x8000, 0x8040}
	qualify(t, c, 0x40, addrs)
	// Re-train the signature of addrs[0] downward with benign instances.
	for i := 0; i < 16; i++ {
		c.OnLoadComplete(&cpu.LoadEvent{IP: 0x40, Addr: addrs[0],
			ServedBy: mem.LevelL2, StalledHead: false})
	}
	c.SetHistories(0, 0)
	ok, _ := c.Allow(cand(0x40, addrs[0]))
	if ok {
		t.Fatal("low-confidence signature must be dropped")
	}
	if c.Stats().Dropped[DropLowConfidence] == 0 {
		t.Fatal("low-confidence drop not recorded")
	}
}

func TestSignatureSeparatesBranchContexts(t *testing.T) {
	// The same (IP, addr) is critical under history A and benign under
	// history B: the signature predictor should learn both contexts.
	c := MustNew(DefaultConfig())
	ip, addr := uint64(0x50), mem.Addr(0x9000)
	const histA, histB = 0xAAAA, 0x5555
	for i := 0; i < 12; i++ {
		c.OnLoadComplete(critEvent(ip, addr, histA, 0xFF))
		c.OnLoadComplete(&cpu.LoadEvent{IP: ip, Addr: addr, ServedBy: mem.LevelL2,
			StalledHead: false, BranchHist: histB, CritHist: 0})
	}
	qualifyAccuracy(c, ip, addr)
	c.SetHistories(histA, 0xFF)
	okA, _ := c.Allow(cand(ip, addr))
	c.SetHistories(histB, 0)
	okB, _ := c.Allow(cand(ip, addr))
	if !okA {
		t.Fatal("critical-context prefetch dropped")
	}
	if okB {
		t.Fatal("benign-context prefetch allowed — signature not separating contexts")
	}
}

// qualifyAccuracy pushes an already-shortlisted IP over the accuracy bar.
func qualifyAccuracy(c *CLIP, ip uint64, addr mem.Addr) {
	cycle := uint64(10000)
	for w := 0; w < 2; w++ {
		for i := 0; i < exploreQuota; i++ {
			c.SetHistories(0xAAAA, 0xFF)
			if ok, _ := c.Allow(cand(ip, addr)); ok {
				c.OnAccess(addr, true, cycle)
			}
			cycle += 5
		}
		for m := uint64(0); m < c.cfg.ExplorationWindow; m++ {
			c.OnAccess(0xBEE000, false, cycle)
			cycle++
		}
	}
}

func TestIPOnlyAblationLosesContextSeparation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseSignature = false
	c := MustNew(cfg)
	ip, addr := uint64(0x60), mem.Addr(0xA000)
	for i := 0; i < 12; i++ {
		c.OnLoadComplete(critEvent(ip, addr, 0xAAAA, 0xFF))
		c.OnLoadComplete(&cpu.LoadEvent{IP: ip, Addr: addr, ServedBy: mem.LevelL2,
			StalledHead: false, BranchHist: 0x5555, CritHist: 0})
	}
	// With IP-only indexing both contexts share one counter; up/down training
	// cancels and the counter hovers at init (MSB set) — context-blind.
	sigA := c.signature(ip, addr, 0xAAAA, 0xFF)
	sigB := c.signature(ip, addr, 0x5555, 0)
	if sigA != sigB {
		t.Fatal("IP-only ablation must collapse signatures")
	}
}

func TestAccuracyStageDemotesInaccurateIP(t *testing.T) {
	c := MustNew(DefaultConfig())
	ip := uint64(0x70)
	// Make IP critical.
	for i := 0; i < 8; i++ {
		c.OnLoadComplete(critEvent(ip, 0xB000, 0, 0))
	}
	// Explore with zero hits: accuracy 0 -> bit stays off after the window.
	cycle := uint64(0)
	for i := 0; i < exploreQuota; i++ {
		c.Allow(cand(ip, mem.Addr(0xB000+i*64)))
	}
	for m := uint64(0); m < c.cfg.ExplorationWindow; m++ {
		c.OnAccess(0xCEE000, false, cycle)
		cycle++
	}
	// Quota exhausted in a fresh window only after it resets; bit is off so
	// non-explore prefetches are dropped.
	drops := c.Stats().Dropped[DropInaccurateIP]
	for i := 0; i < exploreQuota+4; i++ {
		c.Allow(cand(ip, mem.Addr(0xB000+i*64)))
	}
	if c.Stats().Dropped[DropInaccurateIP] <= drops {
		t.Fatal("inaccurate IP not demoted after exploration window")
	}
}

func TestStageIIAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseAccuracyStage = false
	c := MustNew(cfg)
	ip := uint64(0x80)
	addr := mem.Addr(0xC000)
	for i := 0; i < 8; i++ {
		c.OnLoadComplete(critEvent(ip, addr, 0, 0))
	}
	c.SetHistories(0, 0)
	// Without Stage II, a critical IP with a confident signature prefetches
	// regardless of measured accuracy.
	ok, _ := c.Allow(cand(ip, addr))
	if !ok {
		t.Fatalf("stage-II-less CLIP dropped a critical confident prefetch: %v",
			c.Stats().Dropped)
	}
}

func TestUtilityBufferHitCounting(t *testing.T) {
	c := MustNew(DefaultConfig())
	ip := uint64(0x90)
	for i := 0; i < 8; i++ {
		c.OnLoadComplete(critEvent(ip, 0xD000, 0, 0))
	}
	ok, _ := c.Allow(cand(ip, 0xD040)) // exploration
	if !ok {
		t.Fatal("exploration prefetch dropped")
	}
	c.OnAccess(0xD040, true, 100)
	if c.Stats().UtilityHits != 1 {
		t.Fatalf("utility hits = %d, want 1", c.Stats().UtilityHits)
	}
	// Same line again: entry consumed, no double count.
	c.OnAccess(0xD040, true, 101)
	if c.Stats().UtilityHits != 1 {
		t.Fatal("utility buffer double-counted")
	}
}

func TestPhaseResetOnAPCShift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.APCWindows = 4
	cfg.ExplorationWindow = 64
	c := MustNew(cfg)
	// Several windows at high APC (dense accesses), then a sparse phase.
	cycle := uint64(0)
	for w := 0; w < 6; w++ {
		for m := 0; m < 64; m++ {
			c.OnAccess(mem.Addr(m*64), false, cycle)
			cycle++ // one access per cycle: APC 1
		}
	}
	if c.Stats().PhaseResets != 0 {
		t.Fatal("premature phase reset")
	}
	for w := 0; w < 2; w++ {
		for m := 0; m < 64; m++ {
			c.OnAccess(mem.Addr(m*64), false, cycle)
			cycle += 10 // APC 0.1: phase change
		}
	}
	if c.Stats().PhaseResets == 0 {
		t.Fatal("phase change not detected")
	}
}

// TestAPCHistoryKeepsLastWindows: the phase detector's history holds the
// last APCWindows window APCs, oldest first, at every length (none at 0),
// and stops allocating once full.
func TestAPCHistoryKeepsLastWindows(t *testing.T) {
	for windows := 0; windows <= 4; windows++ {
		cfg := DefaultConfig()
		cfg.APCWindows = windows
		cfg.APCThreshold = 1e9 // never reset: only the history is under test
		c := MustNew(cfg)
		var want []float64
		cycle := uint64(0)
		for w := 1; w <= 3*windows+3; w++ {
			c.windowAccesses = uint64(w)
			cycle += 10
			c.endWindow(cycle)
			want = append(want, float64(w)/10)
			if len(want) > windows {
				want = want[1:]
			}
			if !reflect.DeepEqual(append([]float64{}, c.apcHistory...), append([]float64{}, want...)) {
				t.Fatalf("APCWindows=%d, window %d: history %v, want %v", windows, w, c.apcHistory, want)
			}
		}
		if n := testing.AllocsPerRun(10, func() { cycle += 10; c.endWindow(cycle) }); n != 0 {
			t.Errorf("APCWindows=%d: a window end allocates %.1f times once the history is full", windows, n)
		}
	}
}

func TestPageModeKeysOnPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageMode = true
	c := MustNew(cfg)
	// Train with one IP; allow with a *different* IP in the same page.
	for i := 0; i < 8; i++ {
		c.OnLoadComplete(critEvent(0x111, 0xE0040, 0, 0))
	}
	ok, _ := c.Allow(cand(0x999, 0xE0080)) // same 4KB page 0xE0000
	if !ok {
		t.Fatalf("page-mode filter should key on the page: %v", c.Stats().Dropped)
	}
}

func TestCriticalIPCountsSplit(t *testing.T) {
	c := MustNew(DefaultConfig())
	// IP 1: always critical (static). IP 2: 50% critical (dynamic).
	for i := 0; i < 20; i++ {
		c.OnLoadComplete(critEvent(1, 0xF000, 0, 0))
		if i%2 == 0 {
			c.OnLoadComplete(critEvent(2, 0xF400, 0, 0))
		} else {
			c.OnLoadComplete(benignEvent(2, 0xF400, 0, 0))
		}
	}
	// Mark both as selected via Allow.
	c.SetHistories(0, 0)
	c.Allow(cand(1, 0xF000))
	c.Allow(cand(2, 0xF400))
	static, dynamic := c.CriticalIPCounts()
	if static != 1 || dynamic != 1 {
		t.Fatalf("static=%d dynamic=%d, want 1/1", static, dynamic)
	}
}

func TestPredictionScoring(t *testing.T) {
	c := MustNew(DefaultConfig())
	ip, addr := uint64(0x222), mem.Addr(0x10000)
	// Warm up: all critical.
	for i := 0; i < 20; i++ {
		c.OnLoadComplete(critEvent(ip, addr, 0, 0))
	}
	s := c.Stats()
	if s.PredScore.TruePos == 0 {
		t.Fatal("no true positives after stable critical stream")
	}
	if acc := s.PredictionAccuracy(); acc < 0.8 {
		t.Fatalf("accuracy %v < 0.8 on a trivially predictable stream", acc)
	}
}

func TestStorageBudgetMatchesTable2(t *testing.T) {
	total := TotalStorageBytes(DefaultConfig(), 512)
	// Paper: 1.56 KB/core.
	if total < 1450 || total > 1700 {
		t.Fatalf("storage = %.0f bytes, want ~1560 (1.56KB)", total)
	}
	items := StorageBudget(DefaultConfig(), 512)
	byName := map[string]int{}
	for _, it := range items {
		byName[it.Structure] = it.Bits
	}
	if byName["Criticality filter"] != 128*21 {
		t.Fatalf("filter bits = %d", byName["Criticality filter"])
	}
	if byName["Criticality predictor"] != 512*10 {
		t.Fatalf("predictor bits = %d", byName["Criticality predictor"])
	}
	if byName["Utility buffer"] != 64*64 {
		t.Fatalf("utility bits = %d", byName["Utility buffer"])
	}
	if byName["ROB extension"] != 512 {
		t.Fatalf("rob extension bits = %d", byName["ROB extension"])
	}
}

func TestFilterLFUEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FilterSets, cfg.FilterWays = 1, 2 // tiny: force eviction
	c := MustNew(cfg)
	// IP A with high crit count; B with low; C arrives -> B evicted.
	for i := 0; i < 4; i++ {
		c.OnLoadComplete(critEvent(0xA1, 0x1000, 0, 0))
	}
	c.OnLoadComplete(critEvent(0xB1, 0x2000, 0, 0))
	c.OnLoadComplete(critEvent(0xC1, 0x3000, 0, 0))
	if c.filterLookup(0xA1) == nil {
		t.Fatal("high-crit-count entry evicted (LFU violated)")
	}
}
