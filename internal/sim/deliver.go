package sim

import (
	"slices"

	"clip/internal/mem"
)

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
		if c := uint(r.Req.Core); r.Req.Type == mem.Load && c < uint(len(s.bypass)) && s.bypass[c].take(r.Req.Addr.LineID()) {
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

// bypassLines is one core's in-flight direct-to-DRAM loads: each line with
// its count, in ascending line order. A load is added when the controller
// takes it (drainDirectDRAM) and taken when its response leaves the
// controller (deliverDRAM). Each holds an L1D MSHR of its core until its
// fill, so NewSystem carves room for the MSHR count; a longer list (a
// restored image can hold one) grows into a backing array of its own.
type bypassLines []bypassLine

type bypassLine struct {
	line uint64
	n    int
}

// find returns where line's entry is, or would be inserted, and whether it
// is there.
func (b bypassLines) find(line uint64) (int, bool) {
	i := 0
	for i < len(b) && b[i].line < line {
		i++
	}
	return i, i < len(b) && b[i].line == line
}

// add counts n more in-flight loads of line.
func (b *bypassLines) add(line uint64, n int) {
	if i, ok := b.find(line); ok {
		(*b)[i].n += n
	} else {
		*b = slices.Insert(*b, i, bypassLine{line, n})
	}
}

// take counts one in-flight load of line off and reports whether there was
// one.
func (b *bypassLines) take(line uint64) bool {
	i, ok := b.find(line)
	if !ok || (*b)[i].n <= 0 {
		return false
	}
	if (*b)[i].n == 1 {
		*b = slices.Delete(*b, i, i+1)
	} else {
		(*b)[i].n--
	}
	return true
}
