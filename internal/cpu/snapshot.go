package cpu

import (
	"clip/internal/mem"
	"clip/internal/snapshot"
	"clip/internal/trace"
)

// Core checkpointing. The ROB columns and bitmaps restore verbatim into the
// slabs NewSystem carved; wiring (generator, port, listeners, fetch checker)
// is rebuilt by construction. Of the instruction stream the image holds the
// generator's position at the start of the current batch and how many of the
// batch's instructions the core has dispatched — no decoded instruction: the
// batch is a pure function of that position. Loading restores the position
// into the generator itself and allocates nothing; the first dispatch fills
// the batch there and resumes at the dispatched count. A spent batch saves as
// the position it ended at with nothing dispatched, so the image depends only
// on how far the core has dispatched. The done bitmap holds every completed
// instruction's bit: a saving State first sets the bit of each valid non-load
// whose completion cycle has come (retire sets it for those it commits), so a
// non-load saves as done exactly when it has completed. A loaded core needs
// nothing rebuilt: a non-load's completion is its doneAt. The issue-stall memo
// is rebuilt state and is not saved.

// State walks the core's architectural and microarchitectural state; loading
// needs a freshly constructed core of the same configuration.
func (c *Core) State(s *snapshot.Coder) {
	if !s.Loading() {
		if len(c.ibuf) > 0 && c.ipos == len(c.ibuf) {
			// Settle a spent batch: the next one starts where the generator is.
			c.ibuf, c.ipos = c.ibuf[:0], 0
		}
		c.markDone()
	}
	start := c.gen // the batch's start until one is filled, then its mark
	if len(c.ibuf) > 0 {
		start = &c.b.mark
	}
	trace.State(s, start)
	s.Int(&c.ipos)
	if s.Err() != nil {
		return
	}

	s.U64s(c.validW)
	s.U64s(c.doneW)
	s.U64s(c.issuedW)
	s.U64s(c.chainW)
	s.U64s(c.pendW)
	s.U64s(c.readyW)
	s.U64s(c.ipCol)
	s.U64s(c.addrCol)
	s.U64s(c.stallCol)
	s.U64s(c.doneAt)
	s.U8s(c.opCol)
	s.U8s(c.servedCol)
	s.I32s(c.depCol)
	s.I32s(c.childCol)

	s.Int(&c.head)
	s.Int(&c.tail)
	s.Int(&c.count)
	s.Int(&c.pendHead)
	s.Int(&c.pendLen)
	s.Int(&c.readyCount)

	s.U64(&c.cycle)
	s.U64(&c.fetchStallUntil)
	s.U64(&c.budget)
	s.U64(&c.retiredTotal)
	s.U64(&c.finishCycle)
	s.Int(&c.outstanding)
	s.Int(&c.lastLoadSlot)

	s.Bool(&c.wake)

	c.bp.State(s)
	s.U32(&c.BranchHist)
	s.U32(&c.CritHist)
	s.U64(&c.lastBlock)

	c.stats.state(s)

	if s.Loading() {
		// The issue-stall memo is not in the image; until a real Tick
		// re-derives it the core counts as woken, whatever horizon the loop
		// cached for it.
		c.stall, c.refusal = issueStale, mem.Watch{}
		if c.ipos < 0 || c.ipos >= ibufBatch {
			s.Corrupt("cpu: snapshot dispatched %d of a %d-instruction batch", c.ipos, ibufBatch)
		}
		if c.head < 0 || c.head >= c.robSize || c.tail < 0 || c.tail >= c.robSize ||
			c.count < 0 || c.count > c.robSize ||
			c.pendHead < -1 || c.pendHead >= c.robSize ||
			c.lastLoadSlot < -1 || c.lastLoadSlot >= c.robSize {
			s.Corrupt("cpu: snapshot ROB cursors out of range")
		}
		if pad := c.robSize & 63; pad != 0 && c.validW[len(c.validW)-1]>>uint(pad) != 0 {
			s.Corrupt("cpu: snapshot marks slots beyond the %d-entry ROB valid", c.robSize)
		}
	}
}

// markDone sets the done bit of every valid non-load whose completion cycle
// has come, walking the count valid slots from the head.
func (c *Core) markDone() {
	for k, slot := 0, c.head; k < c.count; k++ {
		if c.done(slot) {
			setBit(c.doneW, slot)
		}
		if slot++; slot == c.robSize {
			slot = 0
		}
	}
}

func (st *Stats) state(s *snapshot.Coder) {
	s.U64(&st.Cycles)
	s.U64(&st.Retired)
	s.U64(&st.Loads)
	s.U64(&st.Stores)
	s.U64(&st.Branches)
	s.U64(&st.Mispredicts)
	s.U64(&st.ROBStallCycles)
	for i := range st.StallsByLevel {
		s.U64(&st.StallsByLevel[i])
	}
	for i := range st.LoadLatency {
		s.U64(&st.LoadLatency[i].Sum)
		s.U64(&st.LoadLatency[i].Count)
	}
	s.U64(&st.FetchStallCycles)
	s.U64(&st.LoadsStalledHead)
	s.U64(&st.L1DAccesses)
	s.U64(&st.CriticalResponses)
}

// State walks the branch predictor: weights and global history. lastSum and
// tableSel are Predict→Update scratch consumed within one dispatch call and
// never live across cycles.
func (p *Perceptron) State(s *snapshot.Coder) {
	for t := 0; t < pcptTables; t++ {
		s.I8s(p.table(t))
	}
	s.U64(&p.history)
}
