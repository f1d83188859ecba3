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
// path). A full queue backpressures the L1 miss path the way a full DRAM read
// queue does.
const directDRAMDepth = 16

// directRead is one queued direct-DRAM read: a Hermes bypass load (bypass
// true, registered in hermesBypass when it reaches the controller) or a
// mispredicted-probe waste read (a droppable low-priority prefetch).
type directRead struct {
	req    mem.Request
	bypass bool
}

// tileStage is what a tile holds for the shared components across cycles.
type tileStage struct {
	// dramQ is the direct-DRAM queue of the Hermes bypass; the head retries a
	// full controller queue on later cycles.
	dramQ mem.Ring[directRead]
}

// tickTiles advances the awake tiles in ascending core index plus — awake or
// not — those with direct-DRAM reads queued, whose head is offered to the
// controller every cycle. Under skipping, a visited tile that is left with
// nothing due next cycle goes to sleep; under DisableSkip every tile stays
// awake.
func (s *System) tickTiles(cy uint64) {
	a := &s.awake
	for wi, awake := range a.tiles.awake {
		s.self.TileVisits += uint64(bits.OnesCount64(awake))
		for w := awake | a.dramQ[wi]; w != 0; w &= w - 1 {
			b := uint(bits.TrailingZeros64(w))
			i := wi<<6 + int(b)
			ticked := awake>>b&1 != 0
			if ticked {
				s.tickTile(i, cy)
			}
			s.drainDirectDRAM(i)
			s.markDramQ(i)
			if !ticked || !s.skip {
				continue // asleep, only its direct-DRAM queue served; or strict
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

// drainDirectDRAM issues tile i's queued direct-DRAM reads (Hermes bypass
// loads and mispredicted-probe waste reads) to the controller in queue order.
// A bypass load refused by a full read queue stays at the head and retries
// next cycle — head-of-line, preserving the queue's request order; waste
// reads are droppable prefetches the controller always accepts.
func (s *System) drainDirectDRAM(i int) {
	q := &s.stage[i].dramQ
	for q.Len() > 0 {
		e := q.Front()
		if !s.dram.Issue(&e.req) {
			break
		}
		if e.bypass {
			s.hermesBypass[bypassKey(i, e.req.Addr)]++
		}
		q.PopFront()
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
