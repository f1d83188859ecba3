package cpu

import (
	"bytes"
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

// driven is what one driveCore run leaves: the core's observable state and
// its final image, how many cycles it ticked and how many it ran.
type driven struct {
	obs           coreObs
	image         []byte
	ticks, cycles uint64
}

// driveCore runs one core to budget exhaustion. With skip=false it ticks
// every cycle; with skip=true it uses NextEvent/SkipCycles exactly like the
// simulation loop (folding the memory model's response deadlines into the
// horizon and honouring the Woken flag). The two executions must be
// indistinguishable. At the first cycle at or after each of restoreAt, the
// core is saved and the image loaded into a fresh core, which carries on
// through the same memory model (its in-flight responses are what the
// memory system saves).
func driveCore(t *testing.T, cfg Config, gcfg trace.Config, fm *skipMem, budget, maxCycles uint64, fetchStall uint64, skip bool, restoreAt []uint64) driven {
	t.Helper()
	build := func() *Core {
		gen, err := trace.New(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		core, err := New(0, cfg, gen, fm, budget)
		if err != nil {
			t.Fatal(err)
		}
		if fetchStall > 0 {
			core.SetFetchChecker(func(_ int, ip uint64) uint64 {
				if ip%7 == 0 {
					return fetchStall
				}
				return 0
			})
		}
		fm.core = core
		return core
	}
	core := build()
	fm.inflight = fm.inflight[:0]
	fm.issued = 0
	cy, ticks := uint64(0), uint64(0)
	for cy < maxCycles && !core.Finished() {
		if len(restoreAt) > 0 && cy >= restoreAt[0] {
			img := saveCore(t, core)
			core = build()
			if err := loadCore(t, core, img); err != nil {
				t.Fatalf("cycle %d: %v", cy, err)
			}
			for len(restoreAt) > 0 && cy >= restoreAt[0] {
				restoreAt = restoreAt[1:]
			}
		}
		core.Tick(cy)
		fm.tick(cy)
		cy++
		ticks++
		if !skip || core.Woken() || core.Finished() {
			continue // like the simulation loop, no skip past the last Tick
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
	if len(restoreAt) > 0 {
		t.Fatalf("run ended at cycle %d before its restore at %d", cy, restoreAt[0])
	}
	return driven{observeCore(core), saveCore(t, core), ticks, cy}
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
// byte-identical stats to the strict per-cycle loop. Each run is repeated
// with a save and a restore into a fresh core at three cycles, and must end
// with the same stats and the same image. The alu-bound arm keeps the head
// on ALU work due up to 250 cycles out; restored-far-head restores a head
// due 10,000 cycles ahead.
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
	// ALU latencies 1..250 (the generator's cap) and few loads: the head is
	// mostly ALU work completing far ahead.
	alu := trace.Config{
		Name:           "hz-alu",
		Sites:          []trace.SiteSpec{{Class: trace.PatStream, StrideLines: 1, Weight: 1}},
		FootprintLines: 1024, LoadFrac: 0.05, StoreFrac: 0.05, BranchFrac: 0.05,
		BranchMispredictRate: 0.05, ExecLatMean: 128,
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
		{name: "alu-bound", gcfg: alu, cfg: DefaultConfig(), latency: 150, level: mem.LevelLLC},
		{name: "alu-bound-tinyrob", gcfg: alu, cfg: tiny, latency: 4, level: mem.LevelL1},
	}
	for _, a := range arms {
		for seed := uint64(1); seed <= 3; seed++ {
			a, seed := a, seed
			t.Run(fmt.Sprintf("%s-seed%d", a.name, seed), func(t *testing.T) {
				t.Parallel()
				g := a.gcfg
				g.Seed = seed
				const budget, maxCycles = 3000, 5_000_000
				run := func(skip bool, restoreAt ...uint64) driven {
					fm := &skipMem{latency: a.latency, level: a.level, refuseEvery: a.refuse}
					return driveCore(t, a.cfg, g, fm, budget, maxCycles, a.fetchStall, skip, restoreAt)
				}
				tick := run(false)
				skip := run(true)
				if !reflect.DeepEqual(tick.obs, skip.obs) {
					t.Fatalf("skip-driven execution diverges from per-cycle loop:\n tick: %+v\n skip: %+v", tick.obs, skip.obs)
				}
				if !bytes.Equal(tick.image, skip.image) {
					t.Fatalf("skip-driven execution ends in a different image from the per-cycle loop")
				}
				at := []uint64{tick.cycles / 4, tick.cycles / 2, tick.cycles * 3 / 4}
				for _, plain := range []struct {
					skip bool
					driven
				}{{false, tick}, {true, skip}} {
					restored := run(plain.skip, at...)
					if !reflect.DeepEqual(plain.obs, restored.obs) {
						t.Fatalf("skip=%v: restored at %v diverges:\n plain:    %+v\n restored: %+v", plain.skip, at, plain.obs, restored.obs)
					}
					if !bytes.Equal(plain.image, restored.image) {
						t.Fatalf("skip=%v: restored at %v ends in a different image", plain.skip, at)
					}
				}
				// Guard against a vacuous pass: with long memory latencies the
				// skip arm must have jumped over stall cycles (most of them
				// absent backpressure; refused issues keep the core awake, so
				// those arms only need to skip some).
				if a.latency >= 100 {
					bound := tick.ticks
					if a.refuse == 0 {
						bound = tick.ticks * 7 / 10
					}
					if skip.ticks >= bound {
						t.Fatalf("skipping never engaged: %d ticks vs %d per-cycle", skip.ticks, tick.ticks)
					}
				}
			})
		}
	}
	t.Run("restored-far-head", func(t *testing.T) {
		t.Parallel()
		testRestoredFarHead(t)
	})
}

// testRestoredFarHead saves a core whose full ROB holds ALU work, the head
// due 10,000 cycles ahead and each younger slot one cycle later, and
// restores it into a fresh core. After the one Tick a restore costs,
// NextEvent must report exactly the head's cycle; skipped up to it, the
// head must still be pending, and the Tick at that cycle completes and
// retires the head alone.
func testRestoredFarHead(t *testing.T) {
	newCore := func() *Core {
		c, err := New(0, DefaultConfig(), trace.MustNew(batchTrace), &skipMem{latency: 1, level: mem.LevelL1}, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const saved = 100
	far := uint64(saved + 10_000)
	c := newCore()
	c.cycle = saved
	for slot := 0; slot < c.robSize; slot++ {
		c.initSlot(slot, &trace.Instr{Op: trace.OpALU})
		c.doneAt[slot] = far + uint64(slot)
	}
	c.count = c.robSize
	c.ibuf = c.ibuf[:0]

	got := newCore()
	if err := loadCore(t, got, saveCore(t, c)); err != nil {
		t.Fatal(err)
	}
	got.Tick(saved + 1)
	if got.Woken() || !got.HeadStalled() {
		t.Fatalf("after one Tick: woken=%v headStalled=%v", got.Woken(), got.HeadStalled())
	}
	if next := got.NextEvent(saved + 2); next != far {
		t.Fatalf("NextEvent = %d, want the head's completion cycle %d", next, far)
	}
	got.SkipCycles(saved+2, far-(saved+2))
	if !got.HeadStalled() || got.Stats().Retired != 0 {
		t.Fatalf("at cycle %d: headStalled=%v retired=%d, want a pending head", far-1, got.HeadStalled(), got.Stats().Retired)
	}
	got.Tick(far)
	if got.Stats().Retired != 1 || got.head != 1 {
		t.Fatalf("Tick(%d) retired %d (head now slot %d), want the head alone", far, got.Stats().Retired, got.head)
	}
	if want := far - (saved + 1); got.Stats().ROBStallCycles != want {
		t.Fatalf("ROB stall cycles %d, want %d", got.Stats().ROBStallCycles, want)
	}
}
