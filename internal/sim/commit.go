package sim

import (
	"math/bits"

	"clip/internal/invariant"
	"clip/internal/mem"
)

// This file is the commit phase of the two-phase tick: the serial replay of
// everything the concurrent tile phase staged. Commitment order is ascending
// core index — exactly the order the old serial per-core loop performed the
// same side effects — and nothing between the tile phase and the commit
// advances the mesh or DRAM clocks, so a staged effect is byte-identical to
// the direct one. The rest of the cycle (mesh, LLC slices, DRAM, response
// delivery, throttlers) runs serially after the commit, unchanged.

// seal forbids (clipdebug builds) direct mutation of the shared mesh and
// DRAM for the duration of the tile phase. Release builds compile this to
// nothing.
func (s *System) seal() {
	if invariant.Enabled {
		s.mesh.Seal()
		s.dram.Seal()
	}
}

// unseal re-permits direct mesh/DRAM mutation for the commit phase and the
// serial tail.
func (s *System) unseal() {
	if invariant.Enabled {
		s.mesh.Unseal()
		s.dram.Unseal()
	}
}

// commit replays the staged effects of the tiles that ran this cycle, plus
// the direct-DRAM queues of those that did not, in ascending core index: the
// counter deltas, the NoC injections, and the head of the direct-DRAM queue.
// Under skipping it is also where the awake set changes: a tile whose visit
// left nothing due next cycle goes to sleep here, serially, because tiles of
// one bitmap word belong to different shard workers.
func (s *System) commit(cy uint64) {
	if !s.skip {
		for i := range s.stage {
			s.commitTile(i)
		}
		s.self.TileVisits += uint64(len(s.stage))
		s.self.TileVisitsCoreTicked += uint64(s.coresTicked)
		return
	}
	a := &s.awake
	for wi, ran := range a.tiles {
		s.self.TileVisits += uint64(bits.OnesCount64(ran))
		for w := ran | a.dramQ[wi]; w != 0; w &= w - 1 {
			b := uint(bits.TrailingZeros64(w))
			i := wi<<6 + int(b)
			s.commitTile(i)
			s.markDramQ(i)
			if ran>>b&1 == 0 {
				continue // asleep: only its direct-DRAM queue was served
			}
			if next := a.tileNext[i]; next > cy+1 {
				s.sleepTile(i, cy+1, next)
			} else {
				a.tileNext[i] = mem.NoEvent
			}
		}
	}
	s.self.TileVisitsCoreTicked += uint64(s.coresTicked)
}

// commitTile replays tile i's stage.
func (s *System) commitTile(i int) {
	st := &s.stage[i]
	s.coresTicked += st.ticked
	st.ticked = 0
	s.finished += st.finished
	st.finished = 0
	st.sends.FlushTo(s.mesh)
	if invariant.Enabled {
		invariant.Check(st.sends.Len() == 0,
			"sim: tile %d staging not empty after flush", i)
	}
	if st.dramQ.Len() > 0 {
		s.drainDirectDRAM(i)
	}
}

// drainDirectDRAM issues tile i's staged direct-DRAM reads (Hermes bypass
// loads and mispredicted-probe waste reads) to the controller in staging
// order. A bypass load refused by a full read queue stays at the head and
// retries next cycle — head-of-line, preserving the queue's request order;
// waste reads are droppable prefetches the controller always accepts.
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

// hermesFillPath is the on-chip latency a Hermes-accelerated fill still
// pays on its way to the L1 (LLC+L2 fill pipeline and the return NoC hops);
// the bypass only removes the serialized cache *walk* before DRAM.
const hermesFillPath = 45

// deliverHermesHeld completes bypassed fills whose on-chip path elapsed.
func (s *System) deliverHermesHeld(cy uint64) {
	for r := s.hermesHold.Pop(cy); r != nil; r = s.hermesHold.Pop(cy) {
		// The slice loop and the tile phase of this cycle are over: a sleeper
		// is charged through cy before the fill reads its clock.
		slice := s.sliceOf(r.Req.Addr)
		s.wakeSlice(slice, cy+1, WakeHermesFill)
		s.wakeTile(r.Req.Core, cy+1, WakeHermesFill)
		s.llc[slice].Fill(r)
		s.l2[r.Req.Core].Fill(r)
		s.l1d[r.Req.Core].Fill(r)
	}
}

// deliverDRAM routes matured DRAM responses.
func (s *System) deliverDRAM(cy uint64) {
	for r := s.dramPending.Pop(cy); r != nil; r = s.dramPending.Pop(cy) {
		s.self.DueDelivered++
		key := bypassKey(r.Req.Core, r.Req.Addr)
		if n, ok := s.hermesBypass[key]; ok && n > 0 && r.Req.Type == mem.Load {
			if n == 1 {
				delete(s.hermesBypass, key)
			} else {
				s.hermesBypass[key] = n - 1
			}
			// Bypass fill: hold it for the on-chip fill path Hermes still
			// traverses, then wake the L1 MSHR and install copies.
			r.DoneCycle = cy + hermesFillPath
			s.hermesHold.Push(0, r)
			continue
		}
		slice := s.sliceOf(r.Req.Addr)
		s.wakeSlice(slice, cy+1, WakeDRAMFill)
		s.llc[slice].Fill(r)
	}
}
