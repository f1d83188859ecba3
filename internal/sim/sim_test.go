package sim

import (
	"testing"

	"clip/internal/core"
	"clip/internal/mem"
)

// small builds a quick-running config: 4 cores, scaled hierarchy.
func small(bench string, channels int) Config {
	cfg := DefaultConfig(4, channels, 8)
	for i := range cfg.Workload {
		cfg.Workload[i] = bench
	}
	cfg.InstrPerCore = 6000
	cfg.WarmupInstr = 2000
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	cfg := small("619.lbm_s-2676B", 1)
	cfg.Workload = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("empty workload accepted")
	}
	cfg = small("619.lbm_s-2676B", 0)
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero channels accepted")
	}
	cfg = small("no-such-trace", 1)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	cfg = small("619.lbm_s-2676B", 1)
	cfg.Prefetcher = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	for _, tc := range []struct {
		name string
		bad  func(*Config)
	}{
		{"L1D sets not a power of two", func(c *Config) { c.L1D.Sets = 3 }},
		{"unknown L2 policy", func(c *Config) { c.L2.Policy = "bogus" }},
		{"LLC without MSHRs", func(c *Config) { c.LLC.MSHRs = 0 }},
		{"no load queue", func(c *Config) { c.CPU.LQSize = 0 }},
		{"Dynamic CLIP without CLIP", func(c *Config) { c.DynamicCLIP = true }},
	} {
		cfg = small("619.lbm_s-2676B", 1)
		tc.bad(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	// A request carries its core and ROB slot in 16 bits.
	cfg = small("619.lbm_s-2676B", 1)
	cfg.CPU.ROBSize = mem.MaxID + 1
	if cfg.Validate() == nil {
		t.Fatal("a ROB past a request's 16-bit index accepted")
	}
	cfg = small("619.lbm_s-2676B", 1)
	for len(cfg.Workload) <= mem.MaxID {
		cfg.Workload = append(cfg.Workload, cfg.Workload[0])
	}
	if cfg.Validate() == nil {
		t.Fatal("more cores than a request's 16-bit index accepted")
	}
}

func TestRunCompletes(t *testing.T) {
	r := mustRun(t, small("619.lbm_s-2676B", 2))
	if !r.Finished {
		t.Fatal("run did not finish")
	}
	if len(r.IPC) != 4 {
		t.Fatalf("IPC entries %d != cores", len(r.IPC))
	}
	for i, ipc := range r.IPC {
		if ipc <= 0 {
			t.Fatalf("core %d IPC %v", i, ipc)
		}
	}
	if r.L1.DemandAccesses == 0 || r.DRAM.Reads == 0 {
		t.Fatal("no memory traffic recorded")
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, small("605.mcf_s-1554B", 1))
	b := mustRun(t, small("605.mcf_s-1554B", 1))
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("IPC differs at core %d", i)
		}
	}
	if a.DRAM.Reads != b.DRAM.Reads {
		t.Fatal("DRAM reads differ")
	}
}

func TestMoreChannelsFaster(t *testing.T) {
	slow := mustRun(t, small("619.lbm_s-2676B", 1))
	fast := mustRun(t, small("619.lbm_s-2676B", 8))
	if fast.SumIPC() <= slow.SumIPC() {
		t.Fatalf("8 channels (%v) not faster than 1 (%v)",
			fast.SumIPC(), slow.SumIPC())
	}
	if fast.AvgL1MissLatency() >= slow.AvgL1MissLatency() {
		t.Fatalf("miss latency did not drop with bandwidth: %v vs %v",
			fast.AvgL1MissLatency(), slow.AvgL1MissLatency())
	}
}

func TestBertiPrefetchesAndHelpsAtHighBandwidth(t *testing.T) {
	// 8 cores : 8 channels = the paper's one-channel-per-core configuration
	// where prefetchers shine (Figure 1's 64-channel point).
	mk := func(pf string) Config {
		cfg := DefaultConfig(8, 8, 8)
		for i := range cfg.Workload {
			cfg.Workload[i] = "619.lbm_s-2676B"
		}
		cfg.InstrPerCore = 15000
		cfg.WarmupInstr = 4000
		cfg.Prefetcher = pf
		return cfg
	}
	base := mustRun(t, mk("none"))
	pf := mustRun(t, mk("berti"))
	if pf.PFIssued == 0 {
		t.Fatal("Berti issued nothing")
	}
	if pf.PrefetchAccuracy() < 0.5 {
		t.Fatalf("Berti accuracy %v < 0.5 on streams", pf.PrefetchAccuracy())
	}
	if pf.SumIPC() <= base.SumIPC() {
		t.Fatalf("Berti (%v) should beat no-PF (%v) with ample bandwidth",
			pf.SumIPC(), base.SumIPC())
	}
}

// streamHeavy is the workload set where the paper's constrained-bandwidth
// effect concentrates; regime tests average over it (single traces sit on a
// knife edge, and the paper itself reports means over mixes).
var streamHeavy = []string{
	"619.lbm_s-2676B", "619.lbm_s-3766B", "603.bwaves_s-1740B",
	"649.fotonik3d_s-1176B",
}

// constrainedMeans runs the stream-heavy set at the paper's 64-core/4-channel
// bandwidth ratio (the most constrained point of Figures 1/19) and returns
// summed throughput plus mean L1-miss/queue latencies.
func constrainedMeans(t *testing.T, pf string) (ipc, l1lat, qdelay float64) {
	t.Helper()
	for _, bench := range streamHeavy {
		cfg := DefaultConfig(8, 1, 8)
		cfg.TransferCycles = 20 // half-rate channel = paper 4ch for 64 cores
		for i := range cfg.Workload {
			cfg.Workload[i] = bench
		}
		cfg.InstrPerCore = 20000
		cfg.WarmupInstr = 5000
		cfg.Prefetcher = pf
		if pf == "berti+clip" {
			cfg.Prefetcher = "berti"
			c := core.DefaultConfig()
			cfg.CLIP = &c
		}
		r := mustRun(t, cfg)
		ipc += r.SumIPC()
		l1lat += r.AvgL1MissLatency()
		qdelay += r.DRAM.QueueDelay.Mean()
	}
	n := float64(len(streamHeavy))
	return ipc / n, l1lat / n, qdelay / n
}

func TestBertiHurtsAtConstrainedBandwidth(t *testing.T) {
	// The paper's most constrained point (64 cores : 4 channels): Berti's
	// extra/late traffic costs throughput.
	baseIPC, _, _ := constrainedMeans(t, "none")
	pfIPC, _, _ := constrainedMeans(t, "berti")
	if pfIPC > baseIPC*1.01 {
		t.Fatalf("Berti (%v) should not beat no-PF (%v) at the 4-channel ratio",
			pfIPC, baseIPC)
	}
}

func TestBertiInflatesLatencyAt8ChannelRatio(t *testing.T) {
	// At the 8-channel ratio there is partial slack: Berti's bursty traffic
	// turns it into queueing delay, inflating demand miss latency (Figure 3)
	// even where throughput barely moves.
	run := func(pf string) *Result {
		cfg := DefaultConfig(8, 1, 8)
		for i := range cfg.Workload {
			cfg.Workload[i] = "619.lbm_s-2676B"
		}
		cfg.InstrPerCore = 20000
		cfg.WarmupInstr = 5000
		cfg.Prefetcher = pf
		return mustRun(t, cfg)
	}
	base := run("none")
	pf := run("berti")
	if pf.DRAM.QueueDelay.Mean() <= base.DRAM.QueueDelay.Mean() {
		t.Fatalf("Berti should inflate DRAM queueing: %v vs %v",
			pf.DRAM.QueueDelay.Mean(), base.DRAM.QueueDelay.Mean())
	}
}

func TestClipRecoversConstrainedBandwidth(t *testing.T) {
	// 8 cores on one channel = the paper's 8-channels-for-64-cores per-core
	// bandwidth ratio, where CLIP's recovery shows, averaged over the
	// stream-heavy set.
	bertiIPC, _, _ := constrainedMeans(t, "berti")
	clipIPC, _, _ := constrainedMeans(t, "berti+clip")

	if clipIPC <= bertiIPC {
		t.Fatalf("CLIP (%v) should improve on plain Berti (%v) at the constrained ratio",
			clipIPC, bertiIPC)
	}

	// And it does so by dropping most prefetch traffic.
	cfg := DefaultConfig(8, 1, 8)
	for i := range cfg.Workload {
		cfg.Workload[i] = "619.lbm_s-2676B"
	}
	cfg.InstrPerCore = 20000
	cfg.WarmupInstr = 5000
	cfg.Prefetcher = "berti"
	berti := mustRun(t, cfg)
	c := core.DefaultConfig()
	cfg.CLIP = &c
	withCLIP := mustRun(t, cfg)
	if withCLIP.PFIssued >= berti.PFIssued/2 {
		t.Fatalf("CLIP should drop a large share of prefetches: %d vs %d",
			withCLIP.PFIssued, berti.PFIssued)
	}
	if withCLIP.Clip == nil || withCLIP.Clip.Allowed == 0 {
		t.Fatal("CLIP stats missing")
	}
}

func TestClipPredictionQuality(t *testing.T) {
	cfg := DefaultConfig(8, 1, 8)
	for i := range cfg.Workload {
		cfg.Workload[i] = "619.lbm_s-2676B"
	}
	cfg.InstrPerCore = 20000
	cfg.WarmupInstr = 5000
	cfg.Prefetcher = "berti"
	c := core.DefaultConfig()
	cfg.CLIP = &c
	r := mustRun(t, cfg)
	if acc := r.Clip.PredictionAccuracy(); acc < 0.75 {
		t.Fatalf("CLIP prediction accuracy %v < 0.75 (paper: ~0.93)", acc)
	}
	if cov := r.Clip.PredictionCoverage(); cov < 0.4 {
		t.Fatalf("CLIP prediction coverage %v < 0.4 (paper: ~0.76)", cov)
	}
}

func TestScorePredictorsProducesFigure4Inputs(t *testing.T) {
	cfg := small("605.mcf_s-1554B", 1)
	cfg.Prefetcher = "berti"
	cfg.ScorePredictors = true
	r := mustRun(t, cfg)
	if len(r.PredScores) != 6 {
		t.Fatalf("expected 6 predictor scores, got %d", len(r.PredScores))
	}
	for name, sc := range r.PredScores {
		if sc.Events() == 0 {
			t.Fatalf("%s scored no events", name)
		}
	}
	// CATCH and FVP over-predict: coverage near 1, accuracy low (Table 1).
	fvp := r.PredScores["fvp"]
	if fvp.Coverage() < 0.7 {
		t.Fatalf("FVP coverage %v — should over-predict", fvp.Coverage())
	}
}

func TestPriorPredictorFiltering(t *testing.T) {
	cfg := small("605.mcf_s-1554B", 1)
	cfg.Prefetcher = "berti"
	cfg.CritPredictor = "crisp"
	r := mustRun(t, cfg)
	if r.PFIssued >= r.PFGenerated {
		t.Fatal("CRISP filter did not drop anything")
	}
}

func TestThrottlerAdjusts(t *testing.T) {
	cfg := small("619.lbm_s-2676B", 1)
	cfg.Prefetcher = "berti"
	cfg.Throttler = "fdp"
	r := mustRun(t, cfg)
	if !r.Finished {
		t.Fatal("throttled run did not finish")
	}
}

// TestThrottlerNeedsAThrottleablePrefetcher: NewSystem refuses a throttler it
// cannot attach — an unknown name, or a prefetcher without an aggressiveness
// knob (none, or any engine behind DSPatch) — instead of running unthrottled.
// TestThrottlerAdjusts runs the attachable case.
func TestThrottlerNeedsAThrottleablePrefetcher(t *testing.T) {
	for _, tc := range []struct {
		pf, throttler string
		dspatch       bool
	}{
		{"none", "bogus", false},
		{"berti", "bogus", false},
		{"none", "fdp", false},
		{"berti", "fdp", true},
	} {
		cfg := small("619.lbm_s-2676B", 1)
		cfg.Prefetcher, cfg.Throttler, cfg.DSPatch = tc.pf, tc.throttler, tc.dspatch
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("prefetcher %q, DSPatch %t, throttler %q: NewSystem accepted it", tc.pf, tc.dspatch, tc.throttler)
		}
	}
}

func TestHermesRuns(t *testing.T) {
	cfg := small("605.mcf_s-1554B", 2)
	cfg.Prefetcher = "berti"
	cfg.Hermes = true
	r := mustRun(t, cfg)
	if r.Hermes == nil || r.Hermes.Predictions == 0 {
		t.Fatal("Hermes never predicted")
	}
}

func TestDSPatchRuns(t *testing.T) {
	cfg := small("619.lbm_s-2676B", 1)
	cfg.Prefetcher = "berti"
	cfg.DSPatch = true
	r := mustRun(t, cfg)
	if !r.Finished {
		t.Fatal("DSPatch run did not finish")
	}
}

func TestL2PrefetcherAttachment(t *testing.T) {
	cfg := small("603.bwaves_s-1740B", 2)
	cfg.Prefetcher = "spppf"
	r := mustRun(t, cfg)
	if r.PFGenerated == 0 {
		t.Fatal("SPP-PPF generated nothing at L2")
	}
	if r.L2.PFFills+r.LLC.PFFills == 0 {
		t.Fatal("no prefetch fills at L2/LLC")
	}
}

func TestHeterogeneousMix(t *testing.T) {
	cfg := DefaultConfig(4, 2, 8)
	cfg.Workload = []string{
		"619.lbm_s-2676B", "605.mcf_s-1554B", "pr-twitter", "657.xz_s-1306B",
	}
	cfg.InstrPerCore = 5000
	cfg.WarmupInstr = 1000
	r := mustRun(t, cfg)
	if !r.Finished {
		t.Fatal("heterogeneous mix did not finish")
	}
	// All four cores should make progress at distinct rates.
	seen := map[float64]bool{}
	for _, ipc := range r.IPC {
		seen[ipc] = true
	}
	if len(seen) < 3 {
		t.Fatalf("suspiciously uniform IPCs: %v", r.IPC)
	}
}

func TestNoMSHRLeaks(t *testing.T) {
	cfg := small("605.mcf_s-1554B", 1)
	cfg.Prefetcher = "berti"
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.cycle < 3_000_000 && !s.Finished() {
		s.Tick()
	}
	if !s.Finished() {
		t.Fatal("run wedged")
	}
	// The cores keep executing after Finished, so MSHRs stay in use; the
	// leak test is that the *oldest* outstanding entries keep turning over.
	// Snapshot occupancy, run a long drain window, and require every level
	// to have completed far more fills than its MSHR capacity (stuck entries
	// would freeze the fill counters).
	fillsBefore := s.l1d[0].Stats().DemandMissLatency.Count
	for i := 0; i < 50000; i++ {
		s.Tick()
	}
	fillsAfter := s.l1d[0].Stats().DemandMissLatency.Count
	if fillsAfter == fillsBefore {
		t.Fatal("no L1 fills during drain window: MSHRs wedged")
	}
}

func TestWarmupResetsCounters(t *testing.T) {
	cfg := small("619.lbm_s-2676B", 2)
	cfg.WarmupInstr = 3000
	r := mustRun(t, cfg)
	// Post-warmup counters must cover at least the measured budget (cores
	// that finish early keep replaying, so the counter can exceed it, but a
	// counter below the budget would mean the warmup reset never happened
	// or happened late).
	for i, cs := range r.CoreStats {
		if cs.Retired < cfg.InstrPerCore*9/10 {
			t.Fatalf("core %d measured retires %d < budget %d",
				i, cs.Retired, cfg.InstrPerCore)
		}
		if cs.Retired >= cfg.WarmupInstr+cfg.InstrPerCore*10 {
			t.Fatalf("core %d retires %d implausibly high", i, cs.Retired)
		}
	}
}

func TestCriticalIPCountsReported(t *testing.T) {
	cfg := small("605.mcf_s-1554B", 1)
	cfg.Prefetcher = "berti"
	c := core.DefaultConfig()
	cfg.CLIP = &c
	r := mustRun(t, cfg)
	if r.ClipStaticIPs+r.ClipDynamicIPs == 0 {
		t.Fatal("no critical IPs reported")
	}
}

func TestDynamicClipDisengagesAtHighBandwidth(t *testing.T) {
	// The paper's own disengage scenario (§5.3): "only a few cores out of
	// 64 are active and utilizing the eight DRAM channels". Two cores on
	// eight channels leave the bus mostly idle, so Dynamic CLIP should
	// stand down and let Berti run.
	mk := func(dynamic bool) Config {
		cfg := DefaultConfig(2, 8, 8)
		for i := range cfg.Workload {
			cfg.Workload[i] = "619.lbm_s-2676B"
		}
		// Long enough that the utilization sampler's epoch lag is noise.
		cfg.InstrPerCore = 60000
		cfg.WarmupInstr = 8000
		cfg.Prefetcher = "berti"
		c := core.DefaultConfig()
		cfg.CLIP = &c
		cfg.DynamicCLIP = dynamic
		return cfg
	}
	static := mustRun(t, mk(false))
	dynamic := mustRun(t, mk(true))
	if static.ClipActiveFraction != 1 {
		t.Fatalf("static CLIP active fraction %v, want 1", static.ClipActiveFraction)
	}
	if dynamic.ClipActiveFraction > 0.6 {
		t.Fatalf("dynamic CLIP stayed engaged %.0f%% of the time at ample bandwidth",
			100*dynamic.ClipActiveFraction)
	}
	if dynamic.PFIssued <= static.PFIssued {
		t.Fatal("disengaged CLIP should let more prefetches through")
	}
}

func TestDynamicClipStaysEngagedWhenConstrained(t *testing.T) {
	cfg := DefaultConfig(8, 1, 8)
	for i := range cfg.Workload {
		cfg.Workload[i] = "619.lbm_s-2676B"
	}
	cfg.InstrPerCore = 15000
	cfg.WarmupInstr = 4000
	cfg.Prefetcher = "berti"
	c := core.DefaultConfig()
	cfg.CLIP = &c
	cfg.DynamicCLIP = true
	r := mustRun(t, cfg)
	if r.ClipActiveFraction < 0.8 {
		t.Fatalf("dynamic CLIP engaged only %.0f%% under constrained bandwidth",
			100*r.ClipActiveFraction)
	}
}

func TestTLBAndICacheStatsPopulated(t *testing.T) {
	// Streaming code revisits pages 1024 times before moving on: the DTLB
	// must be nearly perfect. (Pointer chasers legitimately sit near 50%.)
	r := mustRun(t, small("619.lbm_s-2676B", 2))
	if r.TLB.Accesses == 0 {
		t.Fatal("TLB saw no accesses")
	}
	if r.TLB.DTLBHitRate() < 0.9 {
		t.Fatalf("DTLB hit rate %v implausibly low for streams", r.TLB.DTLBHitRate())
	}
	if r.ICache.Fetches == 0 {
		t.Fatal("icache saw no fetches")
	}
	if r.ICache.HitRate() < 0.95 {
		t.Fatalf("loop-kernel L1I hit rate %v < 0.95", r.ICache.HitRate())
	}
}
