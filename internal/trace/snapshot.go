package trace

import (
	"fmt"

	"clip/internal/snapshot"
)

// Cursor checkpointing. A program is a pure function of its Config and is
// rebuilt by construction, so an image holds a stream position and nothing
// decoded: the RNG state, program counter, emitted count, phase flag and
// per-site cursors. A consumer that generates ahead of what it has used (a
// core fills a batch, then dispatches from it) saves the position the batch
// started at, plus how much of it was used — see cpu.Core.State.

// State walks the stream position of gen, which must be a Cursor. Loading
// needs a Cursor over the same Config, whose program range-checks the
// position: a hostile image must not index past the loop body or a site's
// delta set.
func State(s *snapshot.Coder, gen Generator) {
	c, ok := gen.(*Cursor)
	if !ok {
		s.Fail(fmt.Errorf("trace: cannot snapshot generator type %T", gen))
		return
	}
	p := c.p
	c.rng.State(s)
	s.Int(&c.pc)
	s.U64(&c.emit)
	s.Bool(&c.inAltPhase)
	if !s.Fixed("trace: sites", len(p.sites)) {
		return
	}
	for i := range p.sites {
		st := &c.sites[i]
		s.U64(&st.cursor)
		s.I32(&st.deltaIdx)
		s.U64(&st.chaseAt)
		s.Bool(&st.takenState)
		s.I32(&st.wordRep)
		s.I32(&st.rowLeft)
	}
	if s.Loading() {
		if c.pc < 0 || c.pc >= len(p.body) {
			s.Corrupt("trace: snapshot pc %d out of program [0,%d)", c.pc, len(p.body))
		}
		for i := range p.sites {
			if d := c.sites[i].deltaIdx; d < 0 || int(d) >= len(p.sites[i].deltas) {
				s.Corrupt("trace: snapshot site %d delta index %d out of [0,%d)", i, d, len(p.sites[i].deltas))
				break
			}
		}
	}
}
