package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
	"clip/internal/tlb"
	"clip/internal/trace"
)

// This file pins the core's issue-stall sleep: a core whose oldest ready load
// the port keeps refusing, or whose scan window holds no ready load, must not
// call Issue again under the skipping loop until the port frees a slot or a
// load completes — while the per-cycle loop retries once a cycle — and both
// loops must end in the same state, counter for counter.

// queueMem is a MemoryPort shaped like an L1D with a finite input queue: it
// refuses every access while the queue is full, drains one entry every
// drainEvery cycles, and answers drained loads after a fixed latency. It
// implements mem.Staller, counting refusals the same way whether they arrive
// one Issue at a time or in bulk through Refused.
type queueMem struct {
	depth      int
	drainEvery uint64
	latency    uint64
	level      mem.Level
	hold       bool // scripted: the queue does not drain

	queue    []mem.Request
	inflight []mem.Response
	pops     uint64
	issues   int    // Issue calls, accepted or refused
	refused  int    // Issue calls that were refused
	refusals uint64 // refused Issues + Refused charges
	core     *Core
}

func (q *queueMem) Issue(req *mem.Request) bool {
	q.issues++
	if len(q.queue) >= q.depth {
		q.refused++
		q.refusals++
		return false
	}
	q.queue = append(q.queue, *req)
	return true
}

func (q *queueMem) StallEpoch(*mem.Request) *uint64 {
	if len(q.queue) >= q.depth {
		return &q.pops
	}
	return nil
}

func (q *queueMem) Refused(_ *mem.Request, n uint64) { q.refusals += n }

func (q *queueMem) tick(cy uint64) {
	if !q.hold && cy%q.drainEvery == 0 && len(q.queue) > 0 {
		req := q.queue[0]
		q.queue = q.queue[1:]
		q.pops++
		if req.Type == mem.Load {
			q.inflight = append(q.inflight, mem.Response{Req: req, ServedBy: q.level, DoneCycle: cy + q.latency})
		}
	}
	rest := q.inflight[:0]
	for _, r := range q.inflight {
		if r.DoneCycle <= cy {
			q.core.CompleteLoad(&r)
		} else {
			rest = append(rest, r)
		}
	}
	q.inflight = rest
}

// stallObs is everything observable about a finished stall run.
type stallObs struct {
	Core     coreObs
	Refusals uint64
	Pops     uint64
}

// stallRun drives one core against q the way sim.tickTile does: skip mode
// ticks the core only when it is woken or its cached horizon has arrived and
// charges SkipCycles otherwise; the per-cycle loop always ticks.
type stallRun struct {
	core   *Core
	q      *queueMem
	next   uint64
	total  int  // real Ticks over the whole run
	ticks  int  // real Ticks inside [from, to]
	issues int  // Issue calls inside [from, to]
	sawDry bool // the dry-window memo was armed at least once
	from   uint64
	to     uint64
}

func newStallRun(t *testing.T, cfg Config, gcfg trace.Config, q *queueMem, budget uint64) *stallRun {
	t.Helper()
	gen, err := trace.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	core, err := New(0, cfg, gen, q, budget)
	if err != nil {
		t.Fatal(err)
	}
	q.core = core
	return &stallRun{core: core, q: q}
}

func (r *stallRun) step(cy uint64, skip bool) {
	issued := r.q.issues
	if !skip || r.core.Woken() || r.next <= cy {
		r.core.Tick(cy)
		r.next = r.core.NextEvent(cy + 1)
		r.total++
		if cy >= r.from && cy <= r.to {
			r.ticks++
		}
	} else {
		r.core.SkipCycles(cy, 1)
	}
	r.sawDry = r.sawDry || r.core.stall == issueDry
	if cy >= r.from && cy <= r.to {
		r.issues += r.q.issues - issued
	}
	r.q.tick(cy)
}

func (r *stallRun) obs() stallObs {
	return stallObs{Core: observeCore(r.core), Refusals: r.q.refusals, Pops: r.q.pops}
}

var (
	stallStream = trace.Config{
		Name:           "stall-stream",
		Sites:          []trace.SiteSpec{{Class: trace.PatStream, StrideLines: 1, Weight: 1}},
		FootprintLines: 4096, LoadFrac: 0.35, StoreFrac: 0.1, BranchFrac: 0.1,
		BranchMispredictRate: 0.03, ExecLatMean: 2,
	}
	// Mostly dependent chases with the odd independent one: long runs of
	// blocked loads at the head of the load queue with a ready one behind
	// them — the dry scan window.
	stallChase = trace.Config{
		Name:           "stall-chase",
		Sites:          []trace.SiteSpec{{Class: trace.PatChase, Weight: 1}},
		ChaseChainFrac: 0.95,
		FootprintLines: 2048, LoadFrac: 0.5, StoreFrac: 0.02, BranchFrac: 0.05,
		BranchMispredictRate: 0.01, ExecLatMean: 1,
	}
)

// TestStallSkipEquivalence: across queue depths, drain rates and latencies
// the sleeping core must be indistinguishable from the polling one, and must
// actually have slept: fewer refused Issue calls, the same refusal count.
func TestStallSkipEquivalence(t *testing.T) {
	tiny := DefaultConfig()
	tiny.ROBSize = 48
	arms := []struct {
		name    string
		gcfg    trace.Config
		cfg     Config
		q       queueMem
		wantDry bool
	}{
		{"stream-shallow", stallStream, DefaultConfig(), queueMem{depth: 4, drainEvery: 7, latency: 40, level: mem.LevelL2}, false},
		{"stream-tinyrob", stallStream, tiny, queueMem{depth: 2, drainEvery: 11, latency: 150, level: mem.LevelLLC}, false},
		{"chase-dry", stallChase, DefaultConfig(), queueMem{depth: 8, drainEvery: 2, latency: 300, level: mem.LevelDRAM}, true},
	}
	for _, a := range arms {
		for seed := uint64(1); seed <= 3; seed++ {
			a, seed := a, seed
			t.Run(fmt.Sprintf("%s-seed%d", a.name, seed), func(t *testing.T) {
				t.Parallel()
				g := a.gcfg
				g.Seed = seed
				run := func(skip bool) (stallObs, *stallRun) {
					q := a.q
					r := newStallRun(t, a.cfg, g, &q, 3000)
					for cy := uint64(0); cy < 5_000_000 && !r.core.Finished(); cy++ {
						r.step(cy, skip)
					}
					if !r.core.Finished() {
						t.Fatalf("core did not finish (skip=%v)", skip)
					}
					return r.obs(), r
				}
				tick, tr := run(false)
				skip, sr := run(true)
				if !reflect.DeepEqual(tick, skip) {
					t.Fatalf("sleeping core diverges from the per-cycle loop:\n tick: %+v\n skip: %+v", tick, skip)
				}
				if sr.total >= tr.total {
					t.Fatalf("sleeping never engaged: %d Ticks vs %d per-cycle", sr.total, tr.total)
				}
				if a.wantDry {
					if !sr.sawDry {
						t.Fatal("arm never hit the dry scan window")
					}
					return
				}
				// Stores and loads refused while dispatch still runs are real
				// retries in both loops; only a fully stalled core sleeps.
				if sr.q.refused >= tr.q.refused {
					t.Fatalf("sleeping never engaged: %d refused Issue calls vs %d per-cycle", sr.q.refused, tr.q.refused)
				}
			})
		}
	}
}

// windowEnd is the length of the strict-window scene.
const windowEnd = 600

// windowRun plays the strict-window scene: the port stops draining at cycle
// 50, the 48-entry ROB fills behind the refused load, every in-flight load
// has long returned by cycle 150, and the port drains again after cycle 260.
// restoreAt > 0 saves the core before that cycle and carries on in a core
// restored from the image; the scene is played up to (not including) stop.
func windowRun(t *testing.T, skip bool, restoreAt, stop uint64) (stallObs, *stallRun) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ROBSize = 48
	g := stallStream
	g.Seed = 7
	q := &queueMem{depth: 4, drainEvery: 1, latency: 20, level: mem.LevelL2}
	r := newStallRun(t, cfg, g, q, 1<<40)
	r.from, r.to = 150, 260
	for cy := uint64(0); cy < stop; cy++ {
		switch cy {
		case 50:
			q.hold = true
		case 261:
			q.hold = false
		}
		if restoreAt != 0 && cy == restoreAt {
			w := snapshot.NewSaver(0)
			r.core.State(w)
			img, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			rd, err := snapshot.NewLoader(img)
			if err != nil {
				t.Fatal(err)
			}
			fresh := newStallRun(t, cfg, g, q, 1<<40)
			fresh.core.State(rd)
			if err := rd.Done(); err != nil {
				t.Fatal(err)
			}
			fresh.next, fresh.from, fresh.to = r.next, r.from, r.to
			fresh.ticks, fresh.issues = r.ticks, r.issues
			r = fresh
		}
		r.step(cy, skip)
	}
	return r.obs(), r
}

// TestStallRefusedCoreStopsIssuing is the polling-is-gone check at the core:
// between the block and the wake the sleeping core makes no Issue call and
// takes no Tick, the per-cycle core makes one of each per cycle, and both
// account the same number of refusals.
func TestStallRefusedCoreStopsIssuing(t *testing.T) {
	tick, tr := windowRun(t, false, 0, windowEnd)
	skip, sr := windowRun(t, true, 0, windowEnd)
	window := int(sr.to - sr.from + 1)
	if sr.ticks != 0 || sr.issues != 0 {
		t.Errorf("sleeping core polled: %d Ticks, %d Issue calls over %d cycles", sr.ticks, sr.issues, window)
	}
	if tr.ticks != window || tr.issues != window {
		t.Errorf("per-cycle core: %d Ticks, %d Issue calls over %d cycles; want one each per cycle", tr.ticks, tr.issues, window)
	}
	if !reflect.DeepEqual(tick, skip) {
		t.Errorf("sleeping core diverges from the per-cycle loop:\n tick: %+v\n skip: %+v", tick, skip)
	}
	if skip.Refusals < uint64(window) {
		t.Errorf("refusals %d do not cover the %d-cycle window", skip.Refusals, window)
	}
}

// TestStallRestoreWhileAsleep: the memo is not in the image, so a core
// restored mid-sleep must poll once (Woken) and then continue exactly like
// the uninterrupted run — nothing double-charged, nothing dropped.
func TestStallRestoreWhileAsleep(t *testing.T) {
	want, _ := windowRun(t, true, 0, windowEnd)
	got, r := windowRun(t, true, 200, windowEnd)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restore while asleep diverges:\n want: %+v\n got:  %+v", want, got)
	}
	if r.ticks != 1 || r.issues != 1 {
		t.Fatalf("restored core took %d Ticks and %d Issue calls inside the window; want exactly the one forced poll", r.ticks, r.issues)
	}
}

// TestStallWakeSources checks each wake signal on a sleeping core directly.
func TestStallWakeSources(t *testing.T) {
	_, r := windowRun(t, true, 0, 200)
	c, q := r.core, r.q
	if c.stall != issueRefused || c.Woken() || c.NextEvent(200) != mem.NoEvent {
		t.Fatalf("core is not asleep on the refusal: stall=%d woken=%v next=%d", c.stall, c.Woken(), c.NextEvent(200))
	}
	q.pops++ // the port frees a slot
	if !c.Woken() {
		t.Fatal("freed slot did not wake the core")
	}
	q.pops--
	if c.Woken() {
		t.Fatal("test bookkeeping: epoch restored but core still woken")
	}
	// A completion for a slot the core no longer tracks still counts as a
	// wake: the loop must re-evaluate the horizon.
	c.CompleteLoad(&mem.Response{Req: mem.Request{ROBIndex: -1}})
	if !c.Woken() {
		t.Fatal("CompleteLoad did not wake the core")
	}
}

// scriptGen replays a fixed program, then ALU filler forever.
type scriptGen struct {
	prog []trace.Instr
	pos  int
}

func (g *scriptGen) Name() string { return "script" }

func (g *scriptGen) Next() trace.Instr {
	if g.pos < len(g.prog) {
		g.pos++
		return g.prog[g.pos-1]
	}
	return trace.Instr{IP: 0x9000, Op: trace.OpALU, ExecLat: 1}
}

// tlbPort mirrors sim.corePort over a real tlb.Hierarchy: translation in
// front of a finite queue, DTLB misses parked (here: for good), and a
// refusal vouched for only after a DTLB hit.
type tlbPort struct {
	tlbs   *tlb.Hierarchy
	q      *queueMem
	parked int
}

func (p *tlbPort) Issue(req *mem.Request) bool {
	if p.tlbs.Translate(req.Addr) == 0 {
		return p.q.Issue(req)
	}
	p.parked++
	return true
}

func (p *tlbPort) StallEpoch(req *mem.Request) *uint64 {
	if !p.tlbs.DTLBResident(req.Addr) {
		return nil
	}
	return p.q.StallEpoch(req)
}

func (p *tlbPort) Refused(req *mem.Request, n uint64) {
	p.tlbs.RepeatHits(req.Addr, n)
	p.q.Refused(req, n)
}

// TestStallStoreEvictsRefusedTranslation: the refusal memo rests on the
// load's DTLB entry, and stores dispatched in the same Tick — after the
// refusal — translate too. Here they evict that entry from a one-set DTLB and
// fill the ROB, so the core would sleep on a refusal that no longer repeats:
// the retry misses the DTLB and is accepted. Both loops must see that.
func TestStallStoreEvictsRefusedTranslation(t *testing.T) {
	page := func(i int) mem.Addr { return mem.Addr(i) << mem.PageShift }
	prog := []trace.Instr{{IP: 0x100, Op: trace.OpLoad, Addr: page(1)}}
	for i := 0; i < 5; i++ {
		prog = append(prog, trace.Instr{IP: 0x104 + uint64(4*i), Op: trace.OpALU, ExecLat: 1})
	}
	for i := 0; i < 6; i++ {
		prog = append(prog, trace.Instr{IP: 0x200 + uint64(4*i), Op: trace.OpStore, Addr: page(2 + i)})
	}
	type obs struct {
		Core     coreObs
		TLB      tlb.Stats
		Refusals uint64
		Parked   int
	}
	run := func(skip bool) obs {
		cfg := DefaultConfig()
		cfg.ROBSize = len(prog) // full once the stores are in
		tcfg := tlb.DefaultConfig(1)
		tcfg.DTLB = tlb.Config{Entries: 4, Ways: 4, Latency: 1} // one set
		port := &tlbPort{tlbs: tlb.MustNew(tcfg), q: &queueMem{depth: 0, hold: true}}
		port.tlbs.Translate(page(1)) // the load hits the DTLB
		core, err := New(0, cfg, &scriptGen{prog: prog}, port, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		next := uint64(0)
		for cy := uint64(0); cy < 40; cy++ {
			if !skip || core.Woken() || next <= cy {
				core.Tick(cy)
				next = core.NextEvent(cy + 1)
			} else {
				core.SkipCycles(cy, 1)
			}
		}
		return obs{observeCore(core), *port.tlbs.Stats(), port.q.refusals, port.parked}
	}
	tick, skip := run(false), run(true)
	if !reflect.DeepEqual(tick, skip) {
		t.Fatalf("sleeping core diverges from the per-cycle loop:\n tick: %+v\n skip: %+v", tick, skip)
	}
	// The scene must have happened: one refusal, then the evicted page came
	// back from the STLB and the load was parked with the six stores.
	if tick.Refusals != 1 || tick.TLB.STLBHits != 1 || tick.Parked != 7 {
		t.Fatalf("scene did not evict the refused load's translation: %+v", tick)
	}
}
