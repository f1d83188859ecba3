package cpu

import (
	"testing"

	"clip/internal/mem"
	"clip/internal/trace"
)

// fakeMem is a MemoryPort that answers loads after a fixed latency.
type fakeMem struct {
	latency   uint64
	level     mem.Level
	inflight  []mem.Response
	core      *Core
	accepting bool
	issued    int
}

func newFakeMem(latency uint64, level mem.Level) *fakeMem {
	return &fakeMem{latency: latency, level: level, accepting: true}
}

func (f *fakeMem) Issue(req *mem.Request) bool {
	if !f.accepting {
		return false
	}
	f.issued++
	if req.Type != mem.Load {
		return true
	}
	f.inflight = append(f.inflight, mem.Response{
		Req: *req, ServedBy: f.level, DoneCycle: req.IssueCycle + f.latency,
	})
	return true
}

func (f *fakeMem) tick(cycle uint64) {
	rest := f.inflight[:0]
	for _, r := range f.inflight {
		if r.DoneCycle <= cycle {
			f.core.CompleteLoad(&r)
		} else {
			rest = append(rest, r)
		}
	}
	f.inflight = rest
}

func testGen(t *testing.T) trace.Generator {
	t.Helper()
	return trace.MustNew(trace.Config{
		Name: "cpu-test",
		Sites: []trace.SiteSpec{
			{Class: trace.PatStream, StrideLines: 1, Weight: 1},
		},
		FootprintLines: 4096, LoadFrac: 0.25, StoreFrac: 0.05, BranchFrac: 0.1,
		BranchMispredictRate: 0.02, ExecLatMean: 1,
	})
}

func runCore(t *testing.T, fm *fakeMem, budget uint64, maxCycles int) *Core {
	t.Helper()
	core, err := New(0, DefaultConfig(), testGen(t), fm, budget)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	for cy := uint64(0); cy < uint64(maxCycles) && !core.Finished(); cy++ {
		core.Tick(cy)
		fm.tick(cy)
	}
	return core
}

func TestCoreRetiresBudget(t *testing.T) {
	fm := newFakeMem(5, mem.LevelL1)
	core := runCore(t, fm, 5000, 100000)
	if !core.Finished() {
		t.Fatalf("core did not finish: retired %d", core.Stats().Retired)
	}
	if core.Stats().IPC() <= 0 {
		t.Fatal("IPC must be positive")
	}
}

func TestCoreConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.ROBSize = 0
	if _, err := New(0, bad, testGen(t), newFakeMem(1, mem.LevelL1), 10); err == nil {
		t.Fatal("invalid config accepted")
	}
	// With no load queue every load would take the LQ-full path and
	// complete as an L1 hit.
	bad = DefaultConfig()
	bad.LQSize = 0
	if _, err := New(0, bad, testGen(t), newFakeMem(1, mem.LevelL1), 10); err == nil {
		t.Fatal("zero-entry load queue accepted")
	}
	if _, err := New(0, DefaultConfig(), nil, newFakeMem(1, mem.LevelL1), 10); err == nil {
		t.Fatal("nil generator accepted")
	}
}

func TestLongLatencyLoadsStallROB(t *testing.T) {
	fast := runCore(t, newFakeMem(5, mem.LevelL1), 3000, 200000)
	slow := runCore(t, newFakeMem(400, mem.LevelDRAM), 3000, 2000000)
	if slow.Stats().ROBStallCycles <= fast.Stats().ROBStallCycles {
		t.Fatalf("DRAM-latency loads should stall more: fast=%d slow=%d",
			fast.Stats().ROBStallCycles, slow.Stats().ROBStallCycles)
	}
	if slow.Stats().IPC() >= fast.Stats().IPC() {
		t.Fatalf("DRAM-latency IPC should be lower: fast=%v slow=%v",
			fast.Stats().IPC(), slow.Stats().IPC())
	}
}

func TestStallAttributionByLevel(t *testing.T) {
	core := runCore(t, newFakeMem(300, mem.LevelDRAM), 2000, 2000000)
	s := core.Stats()
	if s.StallsByLevel[mem.LevelDRAM] == 0 {
		t.Fatal("no stalls attributed to DRAM despite 300-cycle loads")
	}
	if s.StallsByLevel[mem.LevelDRAM] < s.StallsByLevel[mem.LevelL1] {
		t.Fatal("DRAM stalls should dominate L1 stalls")
	}
}

func TestCriticalResponseDetection(t *testing.T) {
	// With large latency from L2+, responses should frequently arrive while
	// the head is stalled → critical per the paper's definition.
	core := runCore(t, newFakeMem(200, mem.LevelLLC), 2000, 2000000)
	if core.Stats().CriticalResponses == 0 {
		t.Fatal("no critical responses detected")
	}
	// L1 hits must never count as critical.
	core2 := runCore(t, newFakeMem(200, mem.LevelL1), 2000, 2000000)
	if core2.Stats().CriticalResponses != 0 {
		t.Fatalf("L1-served loads flagged critical: %d", core2.Stats().CriticalResponses)
	}
}

func TestLoadEventListener(t *testing.T) {
	fm := newFakeMem(50, mem.LevelL2)
	core, err := New(0, DefaultConfig(), testGen(t), fm, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	var events int
	var badLevel int
	core.OnLoadComplete(func(ev *LoadEvent) {
		events++
		if ev.ServedBy != mem.LevelL2 {
			badLevel++
		}
		if ev.Latency == 0 {
			t.Error("zero latency on a 50-cycle fake memory")
		}
	})
	for cy := uint64(0); cy < 500000 && !core.Finished(); cy++ {
		core.Tick(cy)
		fm.tick(cy)
	}
	if events == 0 {
		t.Fatal("no load events fired")
	}
	if badLevel > 0 {
		t.Fatalf("%d events with wrong level", badLevel)
	}
}

func TestRetireEventListener(t *testing.T) {
	fm := newFakeMem(5, mem.LevelL1)
	core, err := New(0, DefaultConfig(), testGen(t), fm, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	var retired, loads uint64
	core.OnRetire(func(ev *RetireEvent) {
		retired++
		if ev.IsLoad {
			loads++
		}
	})
	for cy := uint64(0); cy < 100000 && !core.Finished(); cy++ {
		core.Tick(cy)
		fm.tick(cy)
	}
	if retired < 1000 {
		t.Fatalf("retire events %d < budget 1000", retired)
	}
	if loads == 0 {
		t.Fatal("no load retires observed")
	}
}

func TestBranchHistoryAdvances(t *testing.T) {
	fm := newFakeMem(5, mem.LevelL1)
	core := runCore(t, fm, 2000, 100000)
	if core.BranchHist == 0 {
		t.Fatal("branch history never updated")
	}
	if core.Stats().Branches == 0 {
		t.Fatal("no branches executed")
	}
}

func TestCritHistoryAdvancesUnderMisses(t *testing.T) {
	core := runCore(t, newFakeMem(300, mem.LevelDRAM), 2000, 2000000)
	if core.CritHist == 0 {
		t.Fatal("criticality history never set despite DRAM stalls")
	}
}

func TestBackpressureRetries(t *testing.T) {
	fm := newFakeMem(5, mem.LevelL1)
	core, err := New(0, DefaultConfig(), testGen(t), fm, 500)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	// Refuse all issues for a while; the core must not lose loads.
	fm.accepting = false
	for cy := uint64(0); cy < 100; cy++ {
		core.Tick(cy)
	}
	if fm.issued != 0 {
		t.Fatal("issued while port closed")
	}
	fm.accepting = true
	for cy := uint64(100); cy < 200000 && !core.Finished(); cy++ {
		core.Tick(cy)
		fm.tick(cy)
	}
	if !core.Finished() {
		t.Fatal("core wedged after backpressure")
	}
}

func TestDependentLoadsSerialise(t *testing.T) {
	chase := trace.MustNew(trace.Config{
		Name:           "chase",
		Sites:          []trace.SiteSpec{{Class: trace.PatChase, Weight: 1}},
		FootprintLines: 8192, LoadFrac: 0.3, ChaseChainFrac: 1, ExecLatMean: 1,
	})
	indep := trace.MustNew(trace.Config{
		Name:           "gather",
		Sites:          []trace.SiteSpec{{Class: trace.PatIrregular, Weight: 1}},
		FootprintLines: 8192, LoadFrac: 0.3, ExecLatMean: 1,
	})
	run := func(g trace.Generator) float64 {
		fm := newFakeMem(100, mem.LevelLLC)
		core, err := New(0, DefaultConfig(), g, fm, 3000)
		if err != nil {
			t.Fatal(err)
		}
		fm.core = core
		for cy := uint64(0); cy < 3000000 && !core.Finished(); cy++ {
			core.Tick(cy)
			fm.tick(cy)
		}
		if !core.Finished() {
			t.Fatal("did not finish")
		}
		return core.Stats().IPC()
	}
	chaseIPC, gatherIPC := run(chase), run(indep)
	if chaseIPC >= gatherIPC {
		t.Fatalf("dependent chasing should be slower: chase=%v gather=%v",
			chaseIPC, gatherIPC)
	}
}

func TestHeadStalledReflectsROBState(t *testing.T) {
	fm := newFakeMem(1000, mem.LevelDRAM)
	core, err := New(0, DefaultConfig(), testGen(t), fm, 10000)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	sawStall := false
	for cy := uint64(0); cy < 5000; cy++ {
		core.Tick(cy)
		fm.tick(cy)
		if core.HeadStalled() {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("never observed a head stall with 1000-cycle memory")
	}
}

func TestFetchCheckerStallsFetch(t *testing.T) {
	run := func(withChecker bool) uint64 {
		fm := newFakeMem(5, mem.LevelL1)
		core, err := New(0, DefaultConfig(), testGen(t), fm, 3000)
		if err != nil {
			t.Fatal(err)
		}
		fm.core = core
		if withChecker {
			// Every new fetch block costs 25 cycles — a pathological L1I.
			core.SetFetchChecker(func(_ int, ip uint64) uint64 { return 25 })
		}
		var cy uint64
		for ; cy < 1000000 && !core.Finished(); cy++ {
			core.Tick(cy)
			fm.tick(cy)
		}
		return cy
	}
	fast, slow := run(false), run(true)
	if slow <= fast {
		t.Fatalf("fetch stalls had no effect: %d vs %d cycles", slow, fast)
	}
}

func TestFetchCheckerOnlyOnBlockChange(t *testing.T) {
	fm := newFakeMem(5, mem.LevelL1)
	core, err := New(0, DefaultConfig(), testGen(t), fm, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	checks := 0
	core.SetFetchChecker(func(_ int, ip uint64) uint64 { checks++; return 0 })
	for cy := uint64(0); cy < 100000 && !core.Finished(); cy++ {
		core.Tick(cy)
		fm.tick(cy)
	}
	if checks == 0 {
		t.Fatal("fetch checker never consulted")
	}
	if uint64(checks) >= core.RetiredTotal() {
		t.Fatalf("checker called %d times for %d instructions — should fire only on block changes",
			checks, core.RetiredTotal())
	}
}

func TestResetStatsPreservesProgress(t *testing.T) {
	fm := newFakeMem(5, mem.LevelL1)
	core, err := New(0, DefaultConfig(), testGen(t), fm, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	for cy := uint64(0); cy < 100000 && !core.Finished(); cy++ {
		core.Tick(cy)
		fm.tick(cy)
	}
	total := core.RetiredTotal()
	core.ResetStats()
	if core.Stats().Retired != 0 {
		t.Fatal("stats not reset")
	}
	if core.RetiredTotal() != total {
		t.Fatal("progress accounting disturbed by reset")
	}
	if !core.Finished() {
		t.Fatal("Finished flag lost by reset")
	}
	core.ExtendBudget(500)
	if core.Finished() {
		t.Fatal("budget extension did not re-arm Finished")
	}
}
