package sim

import (
	"math/bits"

	"clip/internal/cache"
	"clip/internal/mem"
)

// This file is the tile walk that opens every Tick. A tile is everything
// private to one core — the core itself, its port, prefetch queue, L1D, L2,
// front-end models and per-core mechanisms (prefetcher, CLIP, criticality
// predictors, Hermes). Tiles are visited in ascending core index, and that
// order is model behaviour: it is the order in which L2 misses enter the mesh
// and direct-DRAM reads reach the controller.

// directDRAMDepth bounds each tile's direct-DRAM queue (the Hermes bypass
// path). A full queue refuses the bypass route of an L1 miss the way a full
// DRAM read queue refuses a read.
const directDRAMDepth = 16

// tileStage is what a tile holds for the shared components across cycles.
type tileStage struct {
	// dramQ is the direct-DRAM queue of the Hermes bypass. It holds bypass
	// loads (registered in bypass when they reach the controller) and
	// mispredicted-probe waste reads (droppable low-priority prefetches);
	// the request type tells them apart.
	dramQ mem.Ring[mem.Request]
	// route is the Hermes route of the L1 miss l1Lower last refused, held
	// until that miss is accepted (saved in the image's Hermes section).
	route hermesRoute
	// pops advances on every dramQ pop: the epoch an L1 miss refused by the
	// full queue watches (mem.Staller). Rebuilt state, like every epoch.
	pops uint64
	// charged is the last cycle whose retry of the parked dramQ head has been
	// counted (chargeHead). Rebuilt state: a restored head is offered again.
	charged uint64
}

// hermesRoute is one L1 miss's route under Hermes, decided on its first
// attempt: the bypass into the tile's direct-DRAM queue, or the L2. live is
// false when no refused miss holds a route.
type hermesRoute struct {
	live   bool
	bypass bool
	req    mem.Request
}

// tickTiles advances the awake tiles in ascending core index plus — awake or
// not — those whose direct-DRAM head is ready to be offered to the
// controller: a head that just reached the front, or one whose controller
// queue has dequeued since it parked (wakeParked). Under skipping, a visited
// tile that is left with nothing due next cycle goes to sleep; under
// DisableSkip every tile stays awake.
func (s *System) tickTiles(cy uint64) {
	a := &s.awake
	for wi, awake := range a.tiles.awake {
		s.self.TileVisits += uint64(bits.OnesCount64(awake))
		for w := awake | a.dramReady[wi]; w != 0; w &= w - 1 {
			b := uint(bits.TrailingZeros64(w))
			i := wi<<6 + int(b)
			ticked := awake>>b&1 != 0
			if ticked {
				s.tickTile(i, cy)
			}
			if hasBit(a.dramReady, i) {
				s.drainDirectDRAM(i, cy)
			}
			if !ticked || !s.skip {
				continue // asleep, only its direct-DRAM head served; or strict
			}
			// Folded after L1 and L2 ticked, so this visit's in-tile wakes (a
			// completed load, an L1D or L2 pop) are already in it.
			if next := s.tileHorizon(i, cy+1); next > cy+1 {
				a.tiles.sleep(i, next)
			}
		}
	}
	s.self.TileVisitsCoreTicked += uint64(s.coresTicked)
}

// tickTile advances tile i by one cycle. Under skipping a component with no
// work this cycle is charged for it instead of ticked.
func (s *System) tickTile(i int, cy uint64) {
	if c := s.cores[i]; !s.skip || c.Woken() || c.NextEvent(cy) <= cy {
		c.Tick(cy)
		s.coresTicked++
	} else {
		c.SkipCycles(cy, 1)
	}
	s.ports[i].Tick(cy)
	s.drainPFQ(i)
	s.tickCache(s.l1d[i], cy)
	s.tickCache(s.l2[i], cy)
}

// tickCache ticks c at cycle cy, or under skipping, when c has no work then,
// charges it the cycle.
func (s *System) tickCache(c *cache.Cache, cy uint64) {
	if !s.skip || c.NextEvent(cy) <= cy {
		c.Tick(cy)
	} else {
		c.SkipCycles(cy, 1)
	}
}

// pushDirect queues a direct-DRAM read on tile i. A read that becomes the
// head is offered to the controller in the same cycle's tile walk.
func (s *System) pushDirect(i int, req mem.Request) {
	q := &s.stage[i].dramQ
	if q.Len() == 0 {
		setBit(s.awake.dramReady, i)
	}
	q.Push(req)
}

// drainDirectDRAM issues tile i's queued direct-DRAM reads (Hermes bypass
// loads and mispredicted-probe waste reads) to the controller in queue order
// at cycle cy. A bypass load refused by a full read queue stays at the head,
// head-of-line, preserving the queue's request order; waste reads are
// droppable prefetches the controller always accepts. Under skipping the
// refused head parks on that queue until it dequeues (wakeParked), its
// retries charged in bulk (chargeHead); the strict loop offers it again every
// cycle.
func (s *System) drainDirectDRAM(i int, cy uint64) {
	a := &s.awake
	st := &s.stage[i]
	q := &st.dramQ
	for q.Len() > 0 {
		req := q.Front()
		s.self.DirectIssues++
		if !s.dram.Issue(req) {
			if s.skip {
				clearBit(a.dramReady, i)
				setBit(a.headParked[s.dram.QueueOf(req)*len(a.tiles.awake):], i)
				st.charged = cy
				s.self.DirectParks++
			}
			return
		}
		if req.Type == mem.Load {
			s.bypass[i].add(req.Addr.LineID(), 1)
		}
		if st.route.live && st.route.bypass {
			// The tile's L1 miss was refused by this full queue and may sleep
			// on its pops: charge it through cy while the refusal stands; its
			// retry next cycle finds the slot.
			s.wakeTile(i, cy+1, WakeDRAMPop)
		}
		q.PopFront()
		st.pops++
	}
	clearBit(a.dramReady, i)
}

// chargeHead counts the refused retries tile i's parked direct-DRAM head
// would have made after its last counted one, through cycle through.
func (s *System) chargeHead(i int, through uint64) {
	if st := &s.stage[i]; through > st.charged {
		s.dram.Refused(st.dramQ.Front(), through-st.charged)
		st.charged = through
	}
}

// drainPFQ issues queued prefetches while the target caches accept them
// (up to two per cycle, the prefetcher's issue bandwidth). The queue is a
// ring, so draining reuses the buffer instead of resizing the head away.
func (s *System) drainPFQ(i int) {
	q := &s.pfQ[i]
	issued := 0
	for q.Len() > 0 && issued < 2 {
		e := q.Front()
		if !s.pfTarget(i, e).TryIssue(&e.req) {
			break
		}
		q.PopFront()
		issued++
		s.pfIssued[i]++
	}
}

// pfTarget returns the cache a queued prefetch injects into.
func (s *System) pfTarget(i int, e *pfEntry) *cache.Cache {
	if e.toL2 {
		return s.l2[i]
	}
	return s.l1d[i]
}
