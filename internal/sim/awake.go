package sim

import (
	"fmt"
	"math/bits"
	"strings"

	"clip/internal/dram"
	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/noc"
)

// This file is the active-set bookkeeping of the skipping loop (DESIGN.md
// "Time model & event horizons"). A tile or LLC slice none of whose
// components has work is *asleep*: its bit is clear in the awake bitmap, the
// loop does not visit it, and nothing is charged for the cycles it sleeps
// through until someone needs its clocks or counters — the component that
// wakes it, collect, the warmup barrier, SaveState. All of it is rebuilt
// state: SaveState settles every sleeper so the image holds what the
// per-cycle loop would have written, LoadState marks everything awake. Under
// the strict loop (Config.DisableSkip) everything stays awake.

// WakeSource says what woke a sleeping tile or LLC slice.
type WakeSource int

const (
	WakeMesh       WakeSource = iota // a packet delivered by the mesh (L2 fill, LLC request)
	WakeDRAMFill                     // a DRAM response filling an LLC slice
	WakeHermesFill                   // a held Hermes bypass fill
	WakeDRAMPop                      // a queue that refused the sleeper has room: a controller queue at a slice's turn, or a tile's direct-DRAM queue
	WakeTimed                        // the sleeper's own deadline came due
	NumWakeSources
)

func (w WakeSource) String() string {
	return [...]string{"mesh", "dram-fill", "hermes-fill", "dram-pop", "timed"}[w]
}

// SelfStats counts what the simulation loop itself did — not the modelled
// machine. It is not part of Result, of a snapshot image or of any digest.
type SelfStats struct {
	Ticks                uint64 // System.Tick calls
	TileVisits           uint64 // tiles the tile walk visited
	TileVisitsCoreTicked uint64 // ...of which the core took a real Tick
	SliceVisits          uint64 // LLC slices the serial tail walked
	GlobalSkips          uint64 // jumps of the global clock
	CyclesSkipped        uint64 // cycles those jumps covered

	// Wakes of a sleeping tile or slice, by source; SliceResleeps are the
	// slice wakes whose first visit left the slice asleep again.
	Wakes         [NumWakeSources]uint64
	SliceResleeps [NumWakeSources]uint64
	// Reparks are slices a controller dequeue would have woken that found the
	// queue full again at their turn and slept on without a visit.
	Reparks uint64
	// DirectIssues are the direct-DRAM heads offered to the controller, and
	// DirectParks those the controller refused under skipping, which then
	// sleep on the queue that refused them (wakeParked).
	DirectIssues, DirectParks uint64

	// The serial tail: DRAM schedule attempts, mesh link visits, and the
	// pending DRAM responses delivered against the queue entries examined.
	DRAM         dram.SchedulerWork
	Links        noc.LinkWork
	DueDelivered uint64
	DueTouched   uint64
}

// SelfStats returns the loop's self-counters so far.
func (s *System) SelfStats() SelfStats {
	self := s.self
	self.DRAM, self.Links = s.dram.SchedulerWork(), s.mesh.LinkWork()
	self.DueTouched = s.dramPending.Examined
	return self
}

// awakeSets is the skipping loop's view of who has work. Every slice below is
// carved from one slab (carveColumns).
type awakeSets struct {
	tiles, slices sleepers
	// dramReady marks the tiles whose direct-DRAM head the tile walk offers
	// to the controller, awake or not: a head that just reached the front,
	// every head under the strict loop, and a parked head whose queue has
	// dequeued since. headParked holds, per DRAM controller queue, the tiles
	// whose head sleeps on a refusal by that queue. A non-empty direct-DRAM
	// queue's head is in exactly one of the two.
	dramReady, headParked []uint64
	// parked holds, per DRAM controller queue, the slices asleep on a refusal
	// by that queue (words per queue = len(slices.awake)). popped marks the
	// sleeping slices one of whose queues has dequeued since: each asks the
	// controller again at its turn in the next slice walk (tickSlices).
	parked, popped []uint64
	// sliceWoke[i] is 1 + the source of slice i's last wake until its next
	// visit, 0 after it.
	sliceWoke []uint64
}

// sleepers is the awake bookkeeping of one kind of sleeper, the tiles or the
// LLC slices. A sleeper owes the cycles after its components' clocks; only
// who is asleep and until when is kept here.
type sleepers struct {
	// awake is the awake bitmap.
	awake []uint64
	// next[i] is a sleeper's own deadline — the earliest cycle one of its
	// components has work with nobody else acting — and mem.NoEvent for one
	// that is awake or waits on others only. min is a lower bound on the
	// column's minimum, so a cycle on which no deadline is due costs one
	// compare.
	next []uint64
	min  uint64
}

func (z *sleepers) asleep(i int) bool { return !hasBit(z.awake, i) }

// sleep takes i, with nothing due before next, out of the awake set.
func (z *sleepers) sleep(i int, next uint64) {
	clearBit(z.awake, i)
	z.next[i] = next
	if next < z.min {
		z.min = next
	}
}

// wake puts i back in the awake set and reports whether it was asleep.
func (z *sleepers) wake(i int) bool {
	if hasBit(z.awake, i) {
		return false
	}
	setBit(z.awake, i)
	z.next[i] = mem.NoEvent
	return true
}

// wakeAll marks every one awake.
func (z *sleepers) wakeAll() {
	for i := range z.next {
		setBit(z.awake, i)
		z.next[i] = mem.NoEvent
	}
	z.min = mem.NoEvent
}

// due hands wake every sleeper whose own deadline is cycle cy, in ascending
// index. On most cycles none is and the cached minimum makes this a compare.
func (z *sleepers) due(cy uint64, wake func(i int)) {
	if cy < z.min {
		return
	}
	min := mem.NoEvent
	for i, next := range z.next {
		if next <= cy {
			wake(i)
		} else if next < min {
			min = next
		}
	}
	z.min = min
}

func setBit(w []uint64, i int)      { w[i>>6] |= 1 << uint(i&63) }
func clearBit(w []uint64, i int)    { w[i>>6] &^= 1 << uint(i&63) }
func hasBit(w []uint64, i int) bool { return w[i>>6]&(1<<uint(i&63)) != 0 }

func anyBit(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// carveColumns takes the one slab behind the watchdog's marks and the
// awake-set columns from the arena and marks everything awake.
func (s *System) carveColumns() {
	n := len(s.cores)
	words := (n + 63) / 64
	rest := mem.Make[uint64](s.arena, 4*n+(4+2*s.dram.Queues())*words)
	carve := func(k int) []uint64 { return mem.Carve(&rest, k) }
	a := &s.awake
	s.watched = carve(n)
	a.tiles = sleepers{awake: carve(words), next: carve(n)}
	a.slices = sleepers{awake: carve(words), next: carve(n)}
	a.sliceWoke, a.dramReady, a.popped = carve(n), carve(words), carve(words)
	a.headParked, a.parked = carve(s.dram.Queues()*words), rest
	s.wakeAll()
}

// wakeAll marks every tile and slice awake — the state of a fresh or
// just-restored system, whose components find their own sleep again on their
// first visit — and restarts the progress watchdog from the current cycle.
func (s *System) wakeAll() {
	a := &s.awake
	a.tiles.wakeAll()
	a.slices.wakeAll()
	clear(a.dramReady)
	for i := range s.stage {
		if s.stage[i].dramQ.Len() > 0 {
			setBit(a.dramReady, i)
		}
	}
	clear(a.headParked)
	clear(a.parked)
	clear(a.popped)
	clear(a.sliceWoke)
	for i, c := range s.cores {
		s.watched[i] = c.RetiredTotal()
	}
	s.watchAt, s.hung = s.cycle+stallLimit, nil
}

// tileHorizon folds tile i's component horizons: the earliest cycle >= now
// at which its core, translation port, prefetch queue, L1D or L2 has work.
// The direct-DRAM queue is not part of it: its head has its own place in the
// tile walk (dramReady) or sleeps on the controller (headParked).
func (s *System) tileHorizon(i int, now uint64) uint64 {
	c := s.cores[i]
	if c.Woken() {
		return now
	}
	h := c.NextEvent(now)
	if h <= now {
		return now
	}
	// A queue whose head waits on a full target has no event of its own: it
	// moves after the target's pop, which the target's horizon reports.
	if q := &s.pfQ[i]; q.Len() > 0 && !s.pfTarget(i, q.Front()).Full() {
		return now
	}
	if e := s.l1d[i].NextEvent(now); e < h {
		h = e
	}
	if e := s.l2[i].NextEvent(now); e < h {
		h = e
	}
	if e := s.ports[i].NextEvent(now); e < h {
		h = e
	}
	return h
}

// sliceHorizon is tileHorizon for LLC slice i and its retry ring.
func (s *System) sliceHorizon(i int, now uint64) uint64 {
	if s.llcRetry[i].Len() > 0 && !s.llc[i].Full() {
		return now
	}
	return s.llc[i].NextEvent(now)
}

// parkSlice files sleeping slice i under the controller queue of each request
// the controller refused it.
func (s *System) parkSlice(i int) {
	a := &s.awake
	words := len(a.slices.awake)
	head, wb := s.llc[i].LowerWaits()
	if head != nil {
		setBit(a.parked[s.dram.QueueOf(head)*words:], i)
	}
	if wb != nil {
		setBit(a.parked[s.dram.QueueOf(wb)*words:], i)
	}
}

// settleTile charges sleeping tile i for the cycles after its clock up to
// (not including) upTo — exactly what the per-cycle loop applies one cycle at
// a time (tickTile's skip branches). The L1D's clock is the tile's: core, L1D
// and L2 were visited together and have slept since.
func (s *System) settleTile(i int, upTo uint64) {
	from := s.l1d[i].Cycle() + 1
	if from >= upTo {
		return
	}
	s.cores[i].SkipCycles(from, upTo-from)
	s.l1d[i].SkipCycles(from, upTo-from)
	s.l2[i].SkipCycles(from, upTo-from)
}

// settleSlice is settleTile for a sleeping LLC slice.
func (s *System) settleSlice(i int, upTo uint64) {
	if from := s.llc[i].Cycle() + 1; from < upTo {
		s.llc[i].SkipCycles(from, upTo-from)
	}
}

// settleAll charges every sleeper, parked direct-DRAM heads included,
// through the last simulated cycle. Whoever reads clocks or bulk-charged
// counters from outside the loop calls it first; settling twice is a no-op.
func (s *System) settleAll() {
	for i := range s.cores {
		if s.awake.tiles.asleep(i) {
			s.settleTile(i, s.cycle)
		}
		if s.headIsParked(i) {
			s.chargeHead(i, s.cycle-1)
		}
		if s.awake.slices.asleep(i) {
			s.settleSlice(i, s.cycle)
		}
	}
}

// wakeTile puts tile i back in the awake set before an outside event touches
// it, first charging it up to (not including) cycle upTo — the callee reads
// its own clock and stall columns. A no-op for an awake tile, and so under
// DisableSkip, where every tile stays awake.
func (s *System) wakeTile(i int, upTo uint64, source WakeSource) {
	if s.awake.tiles.wake(i) {
		s.settleTile(i, upTo)
		s.self.Wakes[source]++
	}
}

// wakeSlice is wakeTile for an LLC slice.
func (s *System) wakeSlice(i int, upTo uint64, source WakeSource) {
	if s.awake.slices.wake(i) {
		s.settleSlice(i, upTo)
		s.awake.sliceWoke[i] = uint64(source) + 1
		s.self.Wakes[source]++
	}
}

// wakeDue wakes the sleepers whose own deadline is cycle cy.
func (s *System) wakeDue(cy uint64) {
	s.awake.tiles.due(cy, func(i int) { s.wakeTile(i, cy, WakeTimed) })
	s.awake.slices.due(cy, func(i int) { s.wakeSlice(i, cy, WakeTimed) })
}

// headIsParked reports whether tile i's direct-DRAM head sleeps on a
// controller queue.
func (s *System) headIsParked(i int) bool {
	return s.stage[i].dramQ.Len() > 0 && !hasBit(s.awake.dramReady, i)
}

// wakeParked runs just before DRAM queue q dequeues (dram.OnDequeue), inside
// the serial tail's dram.Tick: every direct-DRAM head and every slice asleep
// on a refusal by q is charged through the current cycle while the refusal
// still stands. None is offered the slot yet: the strict loop retries them
// on the next cycle — the tile walk's heads in ascending core index, then
// the slices in ascending index — and the freed slot goes to the first that
// asks. So each head is marked ready and asks again at its turn in the tile
// walk (drainDirectDRAM), each slice is marked popped and asks again at its
// turn in the slice walk (recheckPopped).
func (s *System) wakeParked(q int) {
	a := &s.awake
	words := len(a.slices.awake)
	for wi, w := range a.headParked[q*words : (q+1)*words] {
		a.headParked[q*words+wi] = 0
		a.dramReady[wi] |= w
		for ; w != 0; w &= w - 1 {
			s.chargeHead(wi<<6+bits.TrailingZeros64(w), s.cycle)
		}
	}
	for wi, w := range a.parked[q*words : (q+1)*words] {
		a.parked[q*words+wi] = 0
		w &^= a.slices.awake[wi] // bits of slices that woke since they parked are stale
		a.popped[wi] |= w
		for ; w != 0; w &= w - 1 {
			s.settleSlice(wi<<6+bits.TrailingZeros64(w), s.cycle+1)
		}
	}
}

// recheckPopped decides, at sleeping slice i's turn in the slice walk of
// cycle cy, whether the dequeue that marked it popped lets it retry. If the
// controller still refuses what it waits for — the queue filled again before
// its turn — the slice sleeps on, this cycle's refused retry charged with the
// rest; otherwise it wakes for the visit.
func (s *System) recheckPopped(i int, cy uint64) (woke bool) {
	if !s.llc[i].RecheckLower() {
		s.wakeSlice(i, cy, WakeDRAMPop)
		return true
	}
	s.parkSlice(i)
	s.self.Reparks++
	if invariant.Enabled {
		invariant.Check(s.sliceHorizon(i, cy) > cy,
			"sim: LLC slice %d re-parked at cycle %d with work pending (%s)", i, cy, s.describeSlice(i))
	}
	return false
}

// checkSleepingTiles (clipdebug) re-derives from scratch, at the point of
// cycle cy where the loop would have visited them, that every sleeping tile
// really has nothing to do — no component horizon has come due and no watched
// epoch has moved — and that every parked direct-DRAM head would still be
// refused. A wake the bookkeeping missed panics here on the first cycle it
// matters.
func (s *System) checkSleepingTiles(cy uint64) {
	for i := range s.cores {
		if s.awake.tiles.asleep(i) && s.tileHorizon(i, cy) <= cy {
			invariant.Check(false, "sim: tile %d asleep at cycle %d with work pending (%s)", i, cy, s.describeTile(i))
		}
		if s.headIsParked(i) && s.dram.StallEpoch(s.stage[i].dramQ.Front()) == nil {
			invariant.Check(false, "sim: tile %d's direct-DRAM head parked at cycle %d on a queue with room", i, cy)
		}
	}
}

// checkSleepingSlices is checkSleepingTiles for the LLC slices.
func (s *System) checkSleepingSlices(cy uint64) {
	for i := range s.llc {
		if s.awake.slices.asleep(i) && !hasBit(s.awake.popped, i) && s.sliceHorizon(i, cy) <= cy {
			invariant.Check(false, "sim: LLC slice %d asleep at cycle %d with work pending (%s)", i, cy, s.describeSlice(i))
		}
	}
}

// describeTile says what sleeping tile i holds and waits on.
func (s *System) describeTile(i int) string {
	c, l1, l2 := s.cores[i], s.l1d[i], s.l2[i]
	return fmt.Sprintf("core %d: rob=%d head=%s next=%d; port=%d pfQ=%d dramQ=%d parked=%t; l1d inQ=%d mshr=%d; l2 inQ=%d mshr=%d",
		i, c.ROBOccupancy(), c.DebugHead(), s.awake.tiles.next[i], len(s.ports[i].pending), s.pfQ[i].Len(),
		s.stage[i].dramQ.Len(), s.headIsParked(i), l1.InQLen(), l1.MSHRInUse(), l2.InQLen(), l2.MSHRInUse())
}

// describeSlice says what sleeping LLC slice i holds and waits on.
func (s *System) describeSlice(i int) string {
	l := s.llc[i]
	head, wb := l.LowerWaits()
	return fmt.Sprintf("llc %d: inQ=%d mshr=%d retry=%d next=%d dram-refused head=%t wb=%t",
		i, l.InQLen(), l.MSHRInUse(), s.llcRetry[i].Len(), s.awake.slices.next[i], head != nil, wb != nil)
}

// stallNote renders the stall diagnosis, if any, as an error-message suffix.
func (s *System) stallNote() string {
	if s.stall == "" {
		return ""
	}
	return ": " + s.stall
}

// diagnoseStall opens with what the caller observed and names every tile and
// slice that still holds work: what they wait for, if they are asleep on it,
// can no longer arrive.
func (s *System) diagnoseStall(observed string) string {
	var b strings.Builder
	b.WriteString("sim: " + observed)
	for i, c := range s.cores {
		if c.ROBOccupancy() > 0 || s.l1d[i].MSHRInUse() > 0 || s.l2[i].MSHRInUse() > 0 {
			fmt.Fprintf(&b, " [%s]", s.describeTile(i))
		}
		if l := s.llc[i]; l.InQLen() > 0 || l.MSHRInUse() > 0 || s.llcRetry[i].Len() > 0 {
			fmt.Fprintf(&b, " [%s]", s.describeSlice(i))
		}
	}
	return b.String()
}
