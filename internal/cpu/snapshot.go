package cpu

import (
	"encoding/binary"

	"clip/internal/mem"
	"clip/internal/snapshot"
	"clip/internal/trace"
)

// Core checkpointing. The ROB columns and bitmaps restore verbatim into the
// slabs NewSystem carved; wiring (generator, port, listeners, fetch checker)
// is rebuilt by construction and only the generator's stream position is
// captured (trace.State). The pre-decoded instruction buffer needs care:
// ibuf may borrow the shared trace window in place, so saving walks the
// unconsumed remainder and loading parks it in a private buffer — dispatch
// refills mid-cycle whenever the buffer drains, so the changed refill
// boundary cannot affect timing. The issue-stall memo is rebuilt state and
// is not saved.

// State walks the core's architectural and microarchitectural state; loading
// needs a freshly constructed core of the same configuration.
func (c *Core) State(s *snapshot.Coder) {
	trace.State(s, c.gen)

	// Unconsumed pre-decoded instructions, plus whether the zero-copy shared
	// window was still live (its successor position is inside the generator).
	rem := c.ibuf[c.ipos:]
	if s.Loading() {
		rem = nil // never decode over the shared window ibuf may borrow
	}
	for i := range snapshot.Slice(s, "cpu: ibuf", &rem, snapshot.MaxLen, instrBytes) {
		instrState(s, &rem[i])
	}
	winActive := c.win != nil
	s.Bool(&winActive)
	if s.Err() != nil {
		return
	}
	if s.Loading() {
		// Keep the zero-copy window only if both the snapshot and this core
		// have one (the shared-stream cache fills process-locally, so the
		// kinds can differ while the streams stay identical).
		if !winActive || c.win == nil {
			c.win = nil
			if c.priv == nil {
				c.priv = make([]trace.Instr, ibufBatch)
			}
		}
		c.ibuf, c.ipos = rem, 0
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

	// A wheel bucket or the overflow list holds at most one entry per ROB
	// slot.
	for i := range c.wheel {
		b := snapshot.Slice(s, "cpu: wheel bucket", &c.wheel[i], c.robSize, 8+4)
		for j := range b {
			s.U64(&b[j].at)
			s.I32(&b[j].slot)
		}
	}
	for j := range snapshot.Slice(s, "cpu: wheel overflow", &c.overflow, c.robSize, 8+4) {
		s.U64(&c.overflow[j].at)
		s.I32(&c.overflow[j].slot)
	}
	s.U64(&c.overflowMin)
	s.Int(&c.wheelLive)
	s.U64(&c.earliestWheel)
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
		if c.head < 0 || c.head >= c.robSize || c.tail < 0 || c.tail >= c.robSize ||
			c.count < 0 || c.count > c.robSize ||
			c.pendHead < -1 || c.pendHead >= c.robSize ||
			c.lastLoadSlot < -1 || c.lastLoadSlot >= c.robSize {
			s.Corrupt("cpu: snapshot ROB cursors out of range")
		}
	}
}

// instrBytes is the encoded size of one trace.Instr.
const instrBytes = 8 + 1 + 8 + 1 + 1 + 1

// instrState walks one instruction as a single record rather than field by
// field: the unconsumed buffer is the one element-heavy list of the image
// (up to a whole shared window per core), and six codec calls an element
// cost a fifth of SaveState's time.
func instrState(s *snapshot.Coder, ins *trace.Instr) {
	b := s.Window(instrBytes)
	if b == nil {
		return
	}
	if !s.Loading() {
		binary.LittleEndian.PutUint64(b, ins.IP)
		b[8] = uint8(ins.Op)
		binary.LittleEndian.PutUint64(b[9:], uint64(ins.Addr))
		b[17], b[18], b[19] = 0, ins.ExecLat, 0
		if ins.Taken {
			b[17] = 1
		}
		if ins.DependsOnPrevLoad {
			b[19] = 1
		}
		return
	}
	if b[17] > 1 || b[19] > 1 {
		s.Corrupt("cpu: instruction flag bytes %d, %d", b[17], b[19])
		return
	}
	ins.IP = binary.LittleEndian.Uint64(b)
	ins.Op = trace.Op(b[8])
	ins.Addr = mem.Addr(binary.LittleEndian.Uint64(b[9:]))
	ins.Taken, ins.ExecLat, ins.DependsOnPrevLoad = b[17] == 1, b[18], b[19] == 1
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
	for _, t := range p.tables {
		s.I8s(t)
	}
	s.U64(&p.history)
}
