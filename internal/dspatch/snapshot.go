package dspatch

import (
	"clip/internal/prefetch"
	"clip/internal/snapshot"
)

// State walks DSPatch: the wrapped base prefetcher, both pattern tables and
// the modulation counters. The bandwidth source is wiring, rebuilt at
// construction.
func (d *DSPatch) State(s *snapshot.Coder) {
	prefetch.State(s, d.base)
	d.regions.State(s, func(e *regionAcc) {
		s.U64(&e.sig)
		s.U64(&e.bitmap)
	})
	d.table.State(s, func(e *patterns) {
		s.U64(&e.covp)
		s.U64(&e.accp)
		s.Int(&e.seen)
	})
	s.U64(&d.stats.CovSelections)
	s.U64(&d.stats.AccSelections)
	s.U64(&d.stats.Extra)
}
