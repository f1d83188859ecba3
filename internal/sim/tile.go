package sim

import (
	"math/bits"
	"sync"

	"clip/internal/cache"
	"clip/internal/mem"
	"clip/internal/noc"
)

// This file is the tile phase of the two-phase tick. A tile is everything
// private to one core — the core itself, its port, prefetch queue, L1D, L2,
// front-end models and per-core mechanisms (prefetcher, CLIP, criticality
// predictors, Hermes). Tiles tick concurrently on the shard pool; every
// cross-tile side effect (NoC injection, direct-DRAM reads, global counters)
// is routed into the tile's stage and committed serially afterwards (see
// commit.go), so the tile phase reads shared state but never writes it.

// directDRAMDepth bounds each tile's staged direct-DRAM queue (the Hermes
// bypass path). A full queue backpressures the L1 miss path exactly like a
// full DRAM read queue did when the bypass issued synchronously.
const directDRAMDepth = 16

// stagedRead is one queued direct-DRAM read: a Hermes bypass load (bypass
// true, registered in hermesBypass when it reaches the controller) or a
// mispredicted-probe waste read (a droppable low-priority prefetch).
type stagedRead struct {
	req    mem.Request
	bypass bool
}

// tileStage is one tile's staging buffer. During the tile phase it is
// written only by its own tile; the commit phase drains all stages in
// ascending core index — the order the serial per-core loop produces — and
// folds the deltas into the shared counters.
type tileStage struct {
	// sends holds this cycle's NoC injections (L2 misses to LLC slices).
	sends noc.Staging
	// dramQ is the persistent direct-DRAM queue of the Hermes bypass; the
	// head retries a full controller queue on later cycles.
	dramQ mem.Ring[stagedRead]
	// ticked and finished are this cycle's deltas to coresTicked/finished.
	ticked   int
	finished int
	// Pad to a cache-line multiple so adjacent tiles' hot counters do not
	// false-share under the parallel tile phase.
	_ [32]byte
}

// tickTile advances one tile by one cycle. Safe to run concurrently across
// distinct tiles: all writes land in tile-indexed state or s.stage[i], and
// the only shared structures touched are read-only this phase (cache Probe,
// DRAM utilization, the global cycle).
//
//clipvet:tilephase
func (s *System) tickTile(i int, cy uint64) {
	c := s.cores[i]
	if s.skip && s.coreNext[i] > cy && !c.Woken() {
		c.SkipCycles(cy, 1)
	} else {
		c.Tick(cy)
		s.stage[i].ticked++
		if s.skip {
			s.coreNext[i] = c.NextEvent(cy + 1)
		}
	}
	s.ports[i].Tick(cy)
	s.drainPFQ(i)
	if l1 := s.l1d[i]; !s.skip || l1.NextEvent(cy) <= cy {
		l1.Tick(cy)
	} else {
		l1.SkipTick(cy)
	}
	if l2 := s.l2[i]; !s.skip || l2.NextEvent(cy) <= cy {
		l2.Tick(cy)
	} else {
		l2.SkipTick(cy)
	}
	if s.skip {
		// Folded after L1 and L2 ticked, so this visit's in-tile wakes (a
		// completed load, an L1D or L2 pop) are already in it. The commit
		// phase reads the slot and decides whether the tile sleeps.
		s.awake.tileNext[i] = s.tileHorizon(i, cy+1)
	}
}

// drainPFQ issues queued prefetches while the target caches accept them
// (up to two per cycle, the prefetcher's issue bandwidth). The queue is a
// ring, so draining reuses the buffer instead of resizing the head away.
//
//clipvet:tilephase
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

// runTiles executes the tile phase: on the shard pool when one is
// configured, inline in ascending core order otherwise. Both paths run the
// identical per-tile code against the identical staging buffers, so serial
// and parallel execution are byte-identical by construction.
func (s *System) runTiles(cy uint64) {
	if s.skip && !anyBit(s.awake.tiles) {
		return
	}
	if s.pool != nil {
		s.pool.run(cy)
		return
	}
	s.tickTiles(0, len(s.cores), cy)
}

// tickTiles ticks the tiles of [lo, hi) due this cycle: every one under
// DisableSkip, the awake ones otherwise. The awake bitmap is read-only for
// the whole tile phase — workers share its words — and changes at commit.
//
//clipvet:tilephase
func (s *System) tickTiles(lo, hi int, cy uint64) {
	if !s.skip {
		for i := lo; i < hi; i++ {
			s.tickTile(i, cy)
		}
		return
	}
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		for w := s.awake.tiles[wi]; w != 0; w &= w - 1 {
			if i := wi<<6 + bits.TrailingZeros64(w); i >= lo && i < hi {
				s.tickTile(i, cy)
			}
		}
	}
}

// shardPool runs the tile phase on a fixed set of worker goroutines, each
// owning a static contiguous range of tiles (the deterministic partition —
// though determinism comes from staging, not from the partition). Workers
// persist across cycles and park on their start channel between phases.
type shardPool struct {
	start []chan uint64
	wg    sync.WaitGroup
	// panics collects per-worker panic values; run re-raises the first one
	// after the barrier so a tile-phase failure surfaces on the caller.
	panics []any
}

// newShardPool starts workers goroutines over s's tiles. workers must be in
// [2, len(s.cores)].
func newShardPool(s *System, workers int) *shardPool {
	n := len(s.cores)
	p := &shardPool{start: make([]chan uint64, workers), panics: make([]any, workers)}
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		ch := make(chan uint64, 1)
		p.start[w] = ch
		go p.work(s, w, lo, hi, ch)
	}
	return p
}

func (p *shardPool) work(s *System, w, lo, hi int, start <-chan uint64) {
	for cy := range start {
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.panics[w] = r
				}
				p.wg.Done()
			}()
			s.tickTiles(lo, hi, cy)
		}()
	}
}

// run executes one tile phase and blocks until every worker's range is done.
// The WaitGroup barrier publishes all tile writes to the caller, so the
// commit phase reads the stages without further synchronization.
func (p *shardPool) run(cy uint64) {
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- cy
	}
	p.wg.Wait()
	for w, r := range p.panics {
		if r != nil {
			// Re-raise the original value (not a wrapper) so a tile-phase
			// panic is indistinguishable from the serial loop's — recover
			// handlers keyed on the value type (invariant.Violation) work
			// identically in both modes.
			p.panics[w] = nil
			panic(r)
		}
	}
}

// stop terminates the workers. The pool must not be used afterwards.
func (p *shardPool) stop() {
	for _, ch := range p.start {
		close(ch)
	}
}
