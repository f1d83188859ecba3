package tlb

import "clip/internal/snapshot"

// State walks both translation buffers and the counters.
func (h *Hierarchy) State(s *snapshot.Coder) {
	h.dtlb.State(s)
	h.stlb.State(s)
	s.U64(&h.stats.Accesses)
	s.U64(&h.stats.DTLBHits)
	s.U64(&h.stats.STLBHits)
	s.U64(&h.stats.Walks)
	h.stats.WalkDelay.State(s)
}

// State walks the array's two columns and its clock: an invalid entry is
// a zero in each.
func (t *TagArray) State(s *snapshot.Coder) {
	if !s.Fixed("tlb: entries", len(t.tags)) {
		return
	}
	s.U64s(t.tags)
	s.U64s(t.stamps)
	s.U64(&t.clock)
}
