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

// State walks the array's entries and its clock.
func (t *TagArray) State(s *snapshot.Coder) {
	if !s.Fixed("tlb: entries", len(t.entries)) {
		return
	}
	for i := range t.entries {
		e := &t.entries[i]
		s.Bool(&e.valid)
		s.U64(&e.tag)
		s.U64(&e.stamp)
	}
	s.U64(&t.clock)
}
