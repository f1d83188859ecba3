package sim

import "clip/internal/mem"

// This file closes the serial tail of a Tick: DRAM responses and held Hermes
// fills whose time has come are handed to the caches that wait for them.

// hermesFillPath is the on-chip latency a Hermes-accelerated fill still
// pays on its way to the L1 (LLC+L2 fill pipeline and the return NoC hops);
// the bypass only removes the serialized cache *walk* before DRAM.
const hermesFillPath = 45

// deliverHermesHeld completes bypassed fills whose on-chip path elapsed.
func (s *System) deliverHermesHeld(cy uint64) {
	for r := s.hermesHold.Pop(cy); r != nil; r = s.hermesHold.Pop(cy) {
		// The slice loop and the tile walk of this cycle are over: a sleeper
		// is charged through cy before the fill reads its clock.
		slice := s.sliceOf(r.Req.Addr)
		s.wakeSlice(slice, cy+1, WakeHermesFill)
		s.wakeTile(int(r.Req.Core), cy+1, WakeHermesFill)
		s.llc[slice].Fill(r)
		s.l2[r.Req.Core].Fill(r)
		s.l1d[r.Req.Core].Fill(r)
	}
}

// deliverDRAM routes matured DRAM responses.
func (s *System) deliverDRAM(cy uint64) {
	for r := s.dramPending.Pop(cy); r != nil; r = s.dramPending.Pop(cy) {
		s.self.DueDelivered++
		key := bypassKey(int(r.Req.Core), r.Req.Addr)
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
