package cache

import (
	"bytes"
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// This file pins the sleep protocol of a structurally stalled cache: a head
// blocked on a full MSHR file or refused by the lower level, and a writeback
// the lower level refused, must cost nothing per cycle under the skipping
// loop (no Tick, hence no lookup; no Issue to the lower level) while the
// per-cycle loop retries once a cycle — and both must end in the same state,
// counter for counter.

// stallLower is a counting stub Lower that also implements mem.Staller: it
// refuses everything while full, and counts refusals the same way whether
// they arrive one Issue at a time or in bulk through Refused.
type stallLower struct {
	full     bool
	issues   int    // Issue calls, accepted or refused
	refusals uint64 // refused Issues + Refused charges
	pops     uint64
	accepted []mem.Request
}

func (l *stallLower) Issue(req *mem.Request) bool {
	l.issues++
	if l.full {
		l.refusals++
		return false
	}
	l.accepted = append(l.accepted, *req)
	return true
}

func (l *stallLower) StallEpoch(*mem.Request) *uint64 {
	if l.full {
		return &l.pops
	}
	return nil
}

func (l *stallLower) Refused(_ *mem.Request, n uint64) { l.refusals += n }

// free opens the lower level and signals the freed slot.
func (l *stallLower) free() {
	l.full = false
	l.pops++
}

// scene is one scripted stall: before runs ahead of each cycle's Tick (new
// requests, lower-level state flips), after behind it (fills). The cache must
// be asleep over the cycles [from, to].
type scene struct {
	cfg           Config
	lowerFull     bool
	cycles        uint64
	before, after func(c *Cache, l *stallLower, cy uint64)
	from, to      uint64
}

// outcome is what one play of a scene leaves behind.
type outcome struct {
	image    []byte // saved State of the final cache: lines, queues, MSHRs, stats
	refusals uint64 // lower-level refusals, per call or in bulk
	ticks    int    // real Ticks inside [from, to]
	issues   int    // lower-level Issue calls inside [from, to]
}

func imageOf(t *testing.T, c *Cache) []byte {
	t.Helper()
	w := snapshot.NewSaver(0)
	c.State(w)
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// play runs sc from cycle 0. In skip mode each cycle follows the simulation
// loop's gate: Tick when NextEvent says there is work, SkipCycles otherwise.
// restoreAt > 0 (skip mode) saves the cache before that cycle and carries on
// in a fresh cache restored from the image, with a copy of the lower level.
func play(t *testing.T, sc scene, skip bool, restoreAt uint64) outcome {
	t.Helper()
	l := &stallLower{full: sc.lowerFull}
	c := MustNew(sc.cfg, l)
	var out outcome
	for cy := uint64(0); cy < sc.cycles; cy++ {
		if restoreAt != 0 && cy == restoreAt {
			r, err := snapshot.NewLoader(imageOf(t, c))
			if err != nil {
				t.Fatal(err)
			}
			l2 := *l
			l = &l2
			c = MustNew(sc.cfg, l)
			c.State(r)
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
		}
		if sc.before != nil {
			sc.before(c, l, cy)
		}
		issued := l.issues
		if !skip || c.NextEvent(cy) <= cy {
			c.Tick(cy)
			if cy >= sc.from && cy <= sc.to {
				out.ticks++
			}
		} else {
			c.SkipCycles(cy, 1)
		}
		if cy >= sc.from && cy <= sc.to {
			out.issues += l.issues - issued
		}
		if sc.after != nil {
			sc.after(c, l, cy)
		}
	}
	out.image, out.refusals = imageOf(t, c), l.refusals
	return out
}

// checkScene plays sc under both loops and across a save/restore taken in the
// middle of the sleep, and holds the three runs against each other.
func checkScene(t *testing.T, sc scene, wantIssuesPerCycle int) {
	t.Helper()
	on, off := play(t, sc, true, 0), play(t, sc, false, 0)
	window := int(sc.to - sc.from + 1)
	if on.ticks != 0 || on.issues != 0 {
		t.Errorf("skip mode polled while asleep: %d Ticks, %d lower Issues over %d cycles", on.ticks, on.issues, window)
	}
	if off.ticks != window || off.issues != window*wantIssuesPerCycle {
		t.Errorf("per-cycle loop: %d Ticks, %d lower Issues over %d cycles; want %d and %d",
			off.ticks, off.issues, window, window, window*wantIssuesPerCycle)
	}
	if on.refusals != off.refusals {
		t.Errorf("lower-level refusals: skip %d, per-cycle %d", on.refusals, off.refusals)
	}
	if !bytes.Equal(on.image, off.image) {
		t.Errorf("final cache state differs between skip and per-cycle loops")
	}
	re := play(t, sc, true, (sc.from+sc.to)/2)
	if re.refusals != on.refusals || !bytes.Equal(re.image, on.image) {
		t.Errorf("save-while-asleep → restore diverges from the uninterrupted run (refusals %d vs %d)",
			re.refusals, on.refusals)
	}
}

func stallConfig() Config {
	return Config{Name: "stall", Level: mem.LevelL2, Sets: 4, Ways: 2,
		Latency: 1, MSHRs: 2, Ports: 1, InQ: 8, Policy: "lru"}
}

func lineAddr(i int) mem.Addr { return mem.Addr(i) << mem.LineShift }

func fill(c *Cache, addr mem.Addr, cy uint64) {
	c.Fill(&mem.Response{Req: *loadReq(addr, 1, 0), ServedBy: mem.LevelDRAM, DoneCycle: cy})
}

// TestStallMSHRFullSleepsUntilFill: three misses against two MSHRs. The
// third blocks the head from cycle 4; the fill at the end of cycle 14 wakes
// it. MSHRFullEvents must advance once per blocked cycle in both loops.
func TestStallMSHRFullSleepsUntilFill(t *testing.T) {
	sc := scene{cfg: stallConfig(), cycles: 24, from: 5, to: 14}
	sc.before = func(c *Cache, _ *stallLower, cy uint64) {
		if cy == 0 {
			for i := 0; i < 3; i++ {
				if !c.Issue(loadReq(lineAddr(i), 1, 0)) {
					t.Fatal("issue refused")
				}
			}
		}
	}
	sc.after = func(c *Cache, _ *stallLower, cy uint64) {
		if cy == 4 && c.MSHRFree() != 0 {
			t.Fatalf("scene broken: %d MSHRs free at the block", c.MSHRFree())
		}
		if cy == 14 {
			fill(c, lineAddr(0), cy)
		}
	}
	checkScene(t, sc, 0)

	// The compensated counter itself, not just its equality across loops:
	// one event at the block (cycle 4) plus one per slept cycle (5..14).
	l := &stallLower{}
	c := MustNew(sc.cfg, l)
	for cy := uint64(0); cy < 15; cy++ {
		sc.before(c, l, cy)
		if c.NextEvent(cy) <= cy {
			c.Tick(cy)
		} else {
			c.SkipCycles(cy, 1)
		}
	}
	if got := c.Stats().MSHRFullEvents; got != 11 {
		t.Fatalf("MSHRFullEvents = %d after 11 blocked cycles", got)
	}
	if c.NextEvent(15) != mem.NoEvent {
		t.Fatalf("blocked head reports an event at %d", c.NextEvent(15))
	}
	fill(c, lineAddr(0), 14)
	if c.NextEvent(15) != 15 {
		t.Fatalf("fill did not wake the blocked head: next event %d", c.NextEvent(15))
	}
}

// TestStallLowerBusySleepsUntilPop: the lower level refuses the head's miss
// from cycle 2 and frees a slot at the end of cycle 12.
func TestStallLowerBusySleepsUntilPop(t *testing.T) {
	sc := scene{cfg: stallConfig(), lowerFull: true, cycles: 20, from: 3, to: 12}
	sc.before = func(c *Cache, _ *stallLower, cy uint64) {
		if cy == 0 {
			c.Issue(loadReq(lineAddr(0), 1, 0))
		}
	}
	sc.after = func(_ *Cache, l *stallLower, cy uint64) {
		if cy == 2 && l.issues != 1 {
			t.Fatalf("scene broken: %d lower Issues by the block", l.issues)
		}
		if cy == 12 {
			l.free()
		}
	}
	checkScene(t, sc, 1)
}

// TestStallWritebackSleepsUntilPop: a dirty victim's writeback is refused by
// the lower level; nothing else is queued, so the cache sleeps on it.
func TestStallWritebackSleepsUntilPop(t *testing.T) {
	cfg := stallConfig()
	cfg.Sets, cfg.Ways = 1, 1
	sc := scene{cfg: cfg, cycles: 30, from: 9, to: 20}
	sc.before = func(c *Cache, l *stallLower, cy uint64) {
		switch cy {
		case 0:
			st := loadReq(lineAddr(0), 1, 0)
			st.Type = mem.Store
			c.Issue(st)
		case 4:
			c.Issue(loadReq(lineAddr(1), 1, 4))
		case 7:
			l.full = true
		}
	}
	sc.after = func(c *Cache, l *stallLower, cy uint64) {
		switch cy {
		case 3:
			fill(c, lineAddr(0), cy) // store's line arrives and is dirtied
		case 7:
			fill(c, lineAddr(1), cy) // evicts it: writeback queued
		case 20:
			l.free()
		}
	}
	checkScene(t, sc, 1)

	on := play(t, sc, true, 0)
	l := &stallLower{}
	c := MustNew(cfg, l)
	r, err := snapshot.NewLoader(on.image)
	if err != nil {
		t.Fatal(err)
	}
	c.State(r)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writeback did not drain after the pop: Writebacks = %d", c.Stats().Writebacks)
	}
}

// TestStallHeadPollsWithoutStaller: a lower level that does not implement
// mem.Staller gives no wake signal, so the blocked head keeps its per-cycle
// retry under the skipping loop too.
func TestStallHeadPollsWithoutStaller(t *testing.T) {
	c := MustNew(stallConfig(), refuser{})
	c.Issue(loadReq(lineAddr(0), 1, 0))
	for cy := uint64(0); cy < 3; cy++ {
		c.Tick(cy)
	}
	if c.NextEvent(3) != 3 {
		t.Fatalf("head refused by a plain Lower sleeps: next event %d", c.NextEvent(3))
	}
}

type refuser struct{}

func (refuser) Issue(*mem.Request) bool { return false }

// TestStallEpochOfFullQueue: what the level above sees of a full input queue.
func TestStallEpochOfFullQueue(t *testing.T) {
	cfg := stallConfig()
	cfg.InQ = 2
	c := MustNew(cfg, &stallLower{})
	ld := loadReq(lineAddr(0), 1, 0)
	if c.StallEpoch(ld) != nil {
		t.Fatal("empty queue reports a stall")
	}
	c.Issue(loadReq(lineAddr(0), 1, 0))
	c.Issue(loadReq(lineAddr(1), 1, 0))
	e := c.StallEpoch(ld)
	if !c.Full() || e == nil {
		t.Fatal("full queue reports no stall for a load")
	}
	pf := *ld
	pf.Type = mem.Prefetch
	if c.StallEpoch(&pf) != nil {
		t.Fatal("a droppable prefetch is never refused, yet reports a stall")
	}
	pf.Owned = true
	if c.StallEpoch(&pf) == nil {
		t.Fatal("an owned prefetch is refused like a demand, yet reports no stall")
	}
	before := *e
	for cy := uint64(0); cy < 4 && *e == before; cy++ {
		c.Tick(cy)
	}
	if *e == before {
		t.Fatal("popping the input queue did not advance the stall epoch")
	}
}

// TestLowerWaitsNamesWhatTheCacheSleepsOn: the owner of a sleeping cache
// learns from LowerWaits which refused requests — the head's forwarded miss,
// the writeback queue's front — end the sleep when the lower level frees a
// slot, and from Cycle how far the cache has been charged.
func TestLowerWaitsNamesWhatTheCacheSleepsOn(t *testing.T) {
	l := &stallLower{full: true}
	c := MustNew(stallConfig(), l)
	if head, wb := c.LowerWaits(); head != nil || wb != nil {
		t.Fatal("an idle cache waits on its lower level")
	}
	c.Issue(loadReq(lineAddr(5), 1, 0))
	for cy := uint64(0); cy <= 2; cy++ {
		c.Tick(cy)
	}
	head, wb := c.LowerWaits()
	if head == nil || head.Addr != lineAddr(5) || wb != nil {
		t.Fatalf("blocked head: LowerWaits = %v, %v", head, wb)
	}
	c.SkipCycles(3, 7)
	if c.Cycle() != 9 {
		t.Fatalf("clock at %d after SkipCycles(3, 7)", c.Cycle())
	}
	if l.refusals != 1+7 {
		t.Fatalf("%d refusals charged for the block and 7 slept cycles", l.refusals)
	}
	l.free()
	if head, _ := c.LowerWaits(); head != nil {
		t.Fatal("still waiting after the lower level freed a slot")
	}
}

// TestRecheckLowerKeepsTheSleepWhenTheSlotIsGone: the lower level frees a slot
// but it is taken again before the sleeping cache's turn. RecheckLower then
// re-arms the refusal — no Tick, no lookup, no Issue — and the cycles slept
// through are still charged as one refused retry each, exactly what the
// per-cycle loop's retries count. Once a slot is really there it says so and
// the next Tick's retry is accepted.
func TestRecheckLowerKeepsTheSleepWhenTheSlotIsGone(t *testing.T) {
	l := &stallLower{full: true}
	c := MustNew(stallConfig(), l)
	c.Issue(loadReq(lineAddr(5), 1, 0))
	for cy := uint64(0); cy <= 2; cy++ {
		c.Tick(cy)
	}
	if !c.RecheckLower() {
		t.Fatal("a refusal whose epoch stands does not hold")
	}
	c.SkipCycles(3, 4) // cycles 3..6 asleep
	l.free()
	l.full = true // someone ahead of this cache took the slot
	if c.NextEvent(7) != 7 {
		t.Fatal("the freed slot did not end the sleep")
	}
	issues := l.issues
	if !c.RecheckLower() {
		t.Fatal("RecheckLower gave up a refusal the lower level still vouches for")
	}
	if l.issues != issues || c.NextEvent(7) != mem.NoEvent {
		t.Fatalf("re-armed cache is not asleep (next event %d, %d new Issues)", c.NextEvent(7), l.issues-issues)
	}
	if head, _ := c.LowerWaits(); head == nil || head.Addr != lineAddr(5) {
		t.Fatalf("re-armed cache waits on %v", head)
	}
	c.SkipCycles(7, 3) // cycles 7..9 asleep
	if l.refusals != 1+4+3 {
		t.Fatalf("%d refusals charged for the block and 7 slept cycles", l.refusals)
	}
	l.free()
	if c.RecheckLower() {
		t.Fatal("RecheckLower kept the cache asleep with a slot free")
	}
	c.Tick(10)
	if len(l.accepted) != 1 || l.accepted[0].Addr != lineAddr(5) {
		t.Fatalf("retry after the wake not accepted: %v", l.accepted)
	}
}
