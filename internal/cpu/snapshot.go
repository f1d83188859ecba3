package cpu

import (
	"encoding/binary"
	"math/bits"

	"clip/internal/mem"
	"clip/internal/snapshot"
	"clip/internal/trace"
)

// Core checkpointing. The ROB columns and bitmaps restore verbatim into the
// slabs NewSystem carved; wiring (generator, port, listeners, fetch checker)
// is rebuilt by construction and only the generator's stream position is
// captured (trace.State). What the image says about the pre-decoded
// instruction buffer depends on whose buffer it is. While ibuf borrows the
// shared trace window, the image holds the stream position of the core's next
// undispatched instruction and nothing else: how far the borrowed view
// reaches depends on what other simulations of the process have published,
// and a restored core simply borrows the tail again, in place, at its next
// refill — dispatch refills mid-cycle whenever the buffer drains, so a moved
// refill boundary cannot affect timing. Past the window ibuf is a private
// batch the generator has already advanced beyond and cannot be rewound to,
// so its unconsumed remainder (less than ibufBatch instructions) is in the
// image. The timing wheel's chains and the issue-stall memo are rebuilt state
// and are not saved.

// State walks the core's architectural and microarchitectural state; loading
// needs a freshly constructed core of the same configuration.
func (c *Core) State(s *snapshot.Coder) {
	winActive := c.win != nil
	rem := c.ibuf[c.ipos:]
	unread := 0
	if winActive {
		unread, rem = len(rem), nil
	}
	trace.State(s, c.gen, unread)
	s.Bool(&winActive)
	if s.Err() != nil {
		return
	}
	limit := ibufBatch
	if winActive {
		limit = 0 // a live window leaves no remainder
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
		rem = c.priv[:0] // never decode over the shared window ibuf may borrow
	}
	for i := range snapshot.Slice(s, "cpu: ibuf", &rem, limit, instrBytes) {
		instrState(s, &rem[i])
	}
	if s.Loading() {
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
		if c.head < 0 || c.head >= c.robSize || c.tail < 0 || c.tail >= c.robSize ||
			c.count < 0 || c.count > c.robSize ||
			c.pendHead < -1 || c.pendHead >= c.robSize ||
			c.lastLoadSlot < -1 || c.lastLoadSlot >= c.robSize {
			s.Corrupt("cpu: snapshot ROB cursors out of range")
		}
		if pad := c.robSize & 63; pad != 0 && c.validW[len(c.validW)-1]>>uint(pad) != 0 {
			s.Corrupt("cpu: snapshot marks slots beyond the %d-entry ROB valid", c.robSize)
		}
		if s.Err() == nil {
			c.refileWheel()
		}
	}
}

// refileWheel rebuilds the timing wheel of a freshly constructed core from
// the loaded columns: the slots with a completion pending are exactly the
// valid, un-done non-loads, each due at its doneAt.
func (c *Core) refileWheel() {
	for wi, w := range c.validW {
		for w &^= c.doneW[wi]; w != 0; w &= w - 1 {
			slot := wi<<6 + bits.TrailingZeros64(w)
			if trace.Op(c.opCol[slot]) != trace.OpLoad {
				c.schedule(slot, c.doneAt[slot])
			}
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
