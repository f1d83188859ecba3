package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"clip/internal/mem"
	"clip/internal/trace"
)

// skipMem is a MemoryPort for the horizon property test: fixed-latency
// responses, optional periodic backpressure (every refuseEvery-th issue is
// refused, exercising the retry path that keeps the core non-quiescent).
type skipMem struct {
	latency     uint64
	level       mem.Level
	refuseEvery int
	issued      int
	inflight    []mem.Response
	core        *Core
}

func (f *skipMem) Issue(req *mem.Request) bool {
	f.issued++
	if f.refuseEvery > 0 && f.issued%f.refuseEvery == 0 {
		return false
	}
	if req.Type != mem.Load {
		return true
	}
	f.inflight = append(f.inflight, mem.Response{
		Req: *req, ServedBy: f.level, DoneCycle: req.IssueCycle + f.latency,
	})
	return true
}

func (f *skipMem) tick(cycle uint64) {
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

// nextDone returns the earliest pending response deadline (NoEvent if none).
func (f *skipMem) nextDone() uint64 {
	next := uint64(mem.NoEvent)
	for i := range f.inflight {
		if f.inflight[i].DoneCycle < next {
			next = f.inflight[i].DoneCycle
		}
	}
	return next
}

// coreObs captures everything externally observable about a finished core.
type coreObs struct {
	Stats       Stats
	Retired     uint64
	FinishCycle uint64
	BranchHist  uint32
	CritHist    uint32
	Occupancy   int
}

// driveCore runs one core to budget exhaustion. With skip=false it ticks
// every cycle; with skip=true it uses NextEvent/SkipCycles exactly like the
// simulation loop (folding the memory model's response deadlines into the
// horizon and honouring the Woken flag). The two executions must be
// indistinguishable.
func driveCore(t *testing.T, cfg Config, gcfg trace.Config, fm *skipMem, budget, maxCycles uint64, fetchStall uint64, skip bool) (coreObs, uint64) {
	t.Helper()
	gen, err := trace.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	core, err := New(0, cfg, gen, fm, budget)
	if err != nil {
		t.Fatal(err)
	}
	fm.core = core
	fm.inflight = fm.inflight[:0]
	fm.issued = 0
	if fetchStall > 0 {
		core.SetFetchChecker(func(_ int, ip uint64) uint64 {
			if ip%7 == 0 {
				return fetchStall
			}
			return 0
		})
	}
	cy, ticks := uint64(0), uint64(0)
	for cy < maxCycles && !core.Finished() {
		core.Tick(cy)
		fm.tick(cy)
		cy++
		ticks++
		if !skip || core.Woken() {
			continue
		}
		next := core.NextEvent(cy)
		if rn := fm.nextDone(); rn < next {
			next = rn
		}
		if next > cy && next != mem.NoEvent {
			if next > maxCycles {
				next = maxCycles
			}
			core.SkipCycles(cy, next-cy)
			cy = next
		}
	}
	if !core.Finished() {
		t.Fatalf("core did not finish in %d cycles (skip=%v): retired %d", maxCycles, skip, core.Stats().Retired)
	}
	return observeCore(core), ticks
}

// observeCore captures a core's externally observable state.
func observeCore(c *Core) coreObs {
	return coreObs{
		Stats:       *c.Stats(),
		Retired:     c.RetiredTotal(),
		FinishCycle: c.FinishCycle(),
		BranchHist:  c.BranchHist,
		CritHist:    c.CritHist,
		Occupancy:   c.ROBOccupancy(),
	}
}

// TestHorizonSkipEquivalence is the core-level horizon soundness property:
// for a matrix of workload shapes, memory latencies, backpressure patterns
// and core geometries, a NextEvent/SkipCycles-driven execution must produce
// byte-identical stats to the strict per-cycle loop. Before this test,
// horizon soundness was only exercised indirectly through the sim-level skip
// matrix.
func TestHorizonSkipEquivalence(t *testing.T) {
	type arm struct {
		name       string
		gcfg       trace.Config
		cfg        Config
		latency    uint64
		level      mem.Level
		refuse     int
		fetchStall uint64
	}
	stream := trace.Config{
		Name:           "hz-stream",
		Sites:          []trace.SiteSpec{{Class: trace.PatStream, StrideLines: 1, Weight: 1}},
		FootprintLines: 4096, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.15,
		BranchMispredictRate: 0.05, ExecLatMean: 2,
	}
	chase := trace.Config{
		Name:           "hz-chase",
		Sites:          []trace.SiteSpec{{Class: trace.PatChase, Weight: 1}},
		FootprintLines: 2048, LoadFrac: 0.4, StoreFrac: 0.05, BranchFrac: 0.1,
		BranchMispredictRate: 0.02, ExecLatMean: 1,
	}
	tiny := DefaultConfig()
	tiny.ROBSize = 48 // not a multiple of 64: exercises the ring-wrap word logic
	tiny.LQSize = 4   // forces the LQ-full immediate-done path
	arms := []arm{
		{name: "stream-l1", gcfg: stream, cfg: DefaultConfig(), latency: 4, level: mem.LevelL1},
		{name: "stream-dram", gcfg: stream, cfg: DefaultConfig(), latency: 400, level: mem.LevelDRAM},
		{name: "stream-dram-backpressure", gcfg: stream, cfg: DefaultConfig(), latency: 250, level: mem.LevelDRAM, refuse: 3},
		{name: "chase-dram", gcfg: chase, cfg: DefaultConfig(), latency: 300, level: mem.LevelDRAM},
		{name: "chase-l2-fetchstall", gcfg: chase, cfg: DefaultConfig(), latency: 30, level: mem.LevelL2, fetchStall: 9},
		{name: "stream-tinyrob", gcfg: stream, cfg: tiny, latency: 120, level: mem.LevelLLC},
		{name: "chase-tinyrob-backpressure", gcfg: chase, cfg: tiny, latency: 80, level: mem.LevelL2, refuse: 2},
	}
	for _, a := range arms {
		for seed := uint64(1); seed <= 3; seed++ {
			a, seed := a, seed
			t.Run(fmt.Sprintf("%s-seed%d", a.name, seed), func(t *testing.T) {
				t.Parallel()
				g := a.gcfg
				g.Seed = seed
				const budget, maxCycles = 3000, 5_000_000
				run := func(skip bool) (coreObs, uint64) {
					fm := &skipMem{latency: a.latency, level: a.level, refuseEvery: a.refuse}
					return driveCore(t, a.cfg, g, fm, budget, maxCycles, a.fetchStall, skip)
				}
				tick, tickN := run(false)
				skip, skipN := run(true)
				if !reflect.DeepEqual(tick, skip) {
					t.Fatalf("skip-driven execution diverges from per-cycle loop:\n tick: %+v\n skip: %+v", tick, skip)
				}
				// Guard against a vacuous pass: with long memory latencies the
				// skip arm must have jumped over stall cycles (most of them
				// absent backpressure; refused issues keep the core awake, so
				// those arms only need to skip some).
				if a.latency >= 100 {
					bound := tickN
					if a.refuse == 0 {
						bound = tickN * 7 / 10
					}
					if skipN >= bound {
						t.Fatalf("skipping never engaged: %d ticks vs %d per-cycle", skipN, tickN)
					}
				}
			})
		}
	}
}

// newManualCore builds a core with one hand-crafted valid, un-done ALU entry
// in slot 0, for white-box wheel tests that never call Tick.
func newManualCore(t *testing.T) *Core {
	t.Helper()
	gen := trace.MustNew(trace.Config{
		Name:           "hz-manual",
		Sites:          []trace.SiteSpec{{Class: trace.PatStream, StrideLines: 1, Weight: 1}},
		FootprintLines: 64, LoadFrac: 0.1, ExecLatMean: 1,
	})
	c, err := New(0, DefaultConfig(), gen, &skipMem{latency: 1, level: mem.LevelL1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	setBit(c.validW, 0)
	c.opCol[0] = uint8(trace.OpALU)
	c.head, c.tail, c.count = 0, 1, 1
	return c
}

// TestOverflowDerivesDeadline is the regression test for the cycle-skipping
// bug where NextEvent returned `now` whenever any overflow entry existed,
// defeating skipping for the entire window. With the ROB full (dispatch
// closed), the horizon must be the earliest overflow completion.
func TestOverflowDerivesDeadline(t *testing.T) {
	c := newManualCore(t)
	c.schedule(0, wheelSize+88) // beyond the horizon: lands in the overflow list
	if c.overflowLive != 1 || c.overflowMin != wheelSize+88 {
		t.Fatalf("entry not filed to overflow: len=%d min=%d", c.overflowLive, c.overflowMin)
	}
	if c.wheelLive != 1 || c.earliestWheel != wheelSize+88 {
		t.Fatalf("wheel bookkeeping wrong: live=%d earliest=%d", c.wheelLive, c.earliestWheel)
	}
	c.count = c.robSize // pretend full: dispatch closed, nothing else runnable
	if got := c.NextEvent(1); got != wheelSize+88 {
		t.Fatalf("NextEvent(1) = %d, want the overflow deadline %d", got, wheelSize+88)
	}
}

// TestOverflowRefileExact verifies eager refiling: an overflow entry moves
// into its wheel bucket as soon as it comes within the horizon — including
// when the clock lands exactly on its completion cycle — and fires on time.
func TestOverflowRefileExact(t *testing.T) {
	for _, land := range []uint64{200, wheelSize + 88} {
		c := newManualCore(t)
		at := uint64(wheelSize + 88)
		c.schedule(0, at)
		// Jump the clock (as SkipCycles would) and run the completion phase.
		c.cycle = land
		c.completeALU()
		if land < at {
			// Within horizon but before completion: refiled, not fired.
			if c.overflowLive != 0 || c.wheelLive != 1 {
				t.Fatalf("land=%d: not refiled (overflow=%d live=%d)", land, c.overflowLive, c.wheelLive)
			}
			if bitOf(c.doneW, 0) {
				t.Fatalf("land=%d: fired early", land)
			}
			c.cycle = at
			c.completeALU()
		}
		if !bitOf(c.doneW, 0) {
			t.Fatalf("land=%d: completion did not fire at its cycle", land)
		}
		if c.wheelLive != 0 || c.earliestWheel != mem.NoEvent {
			t.Fatalf("land=%d: wheel not drained (live=%d earliest=%d)", land, c.wheelLive, c.earliestWheel)
		}
	}
}

// TestOverflowMixedDeadlines checks that after the nearer of two overflow
// entries fires, the horizon tightens to the remaining one instead of
// degrading to per-cycle ticking.
func TestOverflowMixedDeadlines(t *testing.T) {
	c := newManualCore(t)
	setBit(c.validW, 1)
	c.opCol[1] = uint8(trace.OpALU)
	c.tail, c.count = 2, 2
	near, far := uint64(wheelSize+88), uint64(3*wheelSize)
	c.schedule(0, near)
	c.schedule(1, far)
	c.cycle = near
	c.completeALU()
	if !bitOf(c.doneW, 0) || bitOf(c.doneW, 1) {
		t.Fatalf("near entry did not fire alone: done0=%v done1=%v", bitOf(c.doneW, 0), bitOf(c.doneW, 1))
	}
	if c.wheelLive != 1 || c.earliestWheel != far {
		t.Fatalf("horizon did not tighten to the far overflow entry: live=%d earliest=%d want %d",
			c.wheelLive, c.earliestWheel, far)
	}
	c.count = c.robSize
	c.head = 1 // head is the un-done far entry: nothing runnable until it fires
	if got := c.NextEvent(near + 1); got != far {
		t.Fatalf("NextEvent = %d, want %d", got, far)
	}
	c.cycle = far
	c.completeALU()
	if !bitOf(c.doneW, 1) || c.wheelLive != 0 {
		t.Fatalf("far entry did not fire: done=%v live=%d", bitOf(c.doneW, 1), c.wheelLive)
	}
}
