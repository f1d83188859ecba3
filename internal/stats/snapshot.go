package stats

import "clip/internal/snapshot"

// State walks the accumulator.
func (l *LatencyAcc) State(s *snapshot.Coder) {
	s.U64(&l.Sum)
	s.U64(&l.Count)
	s.U64(&l.Max)
}
