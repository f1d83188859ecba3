package cpu

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/snapshot"
	"clip/internal/trace"
)

// Core checkpointing. The ROB columns and bitmaps restore verbatim into the
// slabs NewSystem carved; wiring (generator, port, listeners, fetch checker)
// is rebuilt by construction and only the generator's stream position is
// captured (trace.SaveGenerator). The pre-decoded instruction buffer needs
// care: ibuf may borrow the shared trace window in place, so Save copies the
// unconsumed remainder out and Load parks it in a private buffer — dispatch
// refills mid-cycle whenever the buffer drains, so the changed refill
// boundary cannot affect timing. The issue-stall memo is rebuilt state and
// is not saved.

// Save serializes the core's architectural and microarchitectural state.
func (c *Core) Save(w *snapshot.Writer) {
	trace.SaveGenerator(w, c.gen)

	// Unconsumed pre-decoded instructions, plus whether the zero-copy shared
	// window was still live (its successor position is inside the generator).
	rem := c.ibuf[c.ipos:]
	w.Int(len(rem))
	for i := range rem {
		saveInstr(w, &rem[i])
	}
	w.Bool(c.win != nil)

	w.U64s(c.validW)
	w.U64s(c.doneW)
	w.U64s(c.issuedW)
	w.U64s(c.chainW)
	w.U64s(c.pendW)
	w.U64s(c.readyW)
	w.U64s(c.ipCol)
	w.U64s(c.addrCol)
	w.U64s(c.stallCol)
	w.U8s(c.opCol)
	w.U8s(c.servedCol)
	w.I32s(c.depCol)
	w.I32s(c.childCol)

	w.Int(c.head)
	w.Int(c.tail)
	w.Int(c.count)
	w.Int(c.pendHead)
	w.Int(c.pendLen)
	w.Int(c.readyCount)

	w.U64(c.cycle)
	w.U64(c.fetchStallUntil)
	w.U64(c.budget)
	w.U64(c.retiredTotal)
	w.U64(c.finishCycle)
	w.Int(c.outstanding)
	w.Int(c.lastLoadSlot)

	for i := range c.wheel {
		b := c.wheel[i]
		w.Int(len(b))
		for j := range b {
			w.U64(b[j].at)
			w.I32(b[j].slot)
		}
	}
	w.Int(len(c.overflow))
	for i := range c.overflow {
		w.U64(c.overflow[i].at)
		w.I32(c.overflow[i].slot)
	}
	w.U64(c.overflowMin)
	w.Int(c.wheelLive)
	w.U64(c.earliestWheel)
	w.Bool(c.wake)

	c.bp.Save(w)
	w.U32(c.BranchHist)
	w.U32(c.CritHist)
	w.U64(c.lastBlock)

	saveStats(w, &c.stats)
}

// Load restores state saved by Save into a freshly constructed core of the
// same configuration.
func (c *Core) Load(r *snapshot.Reader) {
	trace.LoadGenerator(r, c.gen)

	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > 1<<24 {
		r.Fail(fmt.Errorf("cpu: snapshot ibuf length %d: %w", n, snapshot.ErrCorrupt))
		return
	}
	rem := make([]trace.Instr, n)
	for i := range rem {
		loadInstr(r, &rem[i])
	}
	winActive := r.Bool()
	if r.Err() != nil {
		return
	}
	// Keep the zero-copy window only if both the snapshot and this core have
	// one (the shared-stream cache fills process-locally, so the kinds can
	// differ while the streams stay identical).
	if !winActive || c.win == nil {
		c.win = nil
		if c.priv == nil {
			c.priv = make([]trace.Instr, ibufBatch)
		}
	}
	c.ibuf = rem
	c.ipos = 0

	r.U64s(c.validW)
	r.U64s(c.doneW)
	r.U64s(c.issuedW)
	r.U64s(c.chainW)
	r.U64s(c.pendW)
	r.U64s(c.readyW)
	r.U64s(c.ipCol)
	r.U64s(c.addrCol)
	r.U64s(c.stallCol)
	r.U8s(c.opCol)
	r.U8s(c.servedCol)
	r.I32s(c.depCol)
	r.I32s(c.childCol)

	c.head = r.Int()
	c.tail = r.Int()
	c.count = r.Int()
	c.pendHead = r.Int()
	c.pendLen = r.Int()
	c.readyCount = r.Int()

	c.cycle = r.U64()
	c.fetchStallUntil = r.U64()
	c.budget = r.U64()
	c.retiredTotal = r.U64()
	c.finishCycle = r.U64()
	c.outstanding = r.Int()
	c.lastLoadSlot = r.Int()

	for i := range c.wheel {
		bn := r.Int()
		if r.Err() != nil {
			return
		}
		if bn < 0 || bn > c.robSize {
			r.Fail(fmt.Errorf("cpu: snapshot wheel bucket %d entries: %w", bn, snapshot.ErrCorrupt))
			return
		}
		b := c.wheel[i][:0]
		for j := 0; j < bn; j++ {
			var e wheelEntry
			e.at = r.U64()
			e.slot = r.I32()
			b = append(b, e)
		}
		c.wheel[i] = b
	}
	on := r.Int()
	if r.Err() != nil {
		return
	}
	if on < 0 || on > c.robSize {
		r.Fail(fmt.Errorf("cpu: snapshot overflow %d entries: %w", on, snapshot.ErrCorrupt))
		return
	}
	c.overflow = c.overflow[:0]
	for j := 0; j < on; j++ {
		var e wheelEntry
		e.at = r.U64()
		e.slot = r.I32()
		c.overflow = append(c.overflow, e)
	}
	c.overflowMin = r.U64()
	c.wheelLive = r.Int()
	c.earliestWheel = r.U64()
	c.wake = r.Bool()

	c.bp.Load(r)
	c.BranchHist = r.U32()
	c.CritHist = r.U32()
	c.lastBlock = r.U64()

	loadStats(r, &c.stats)

	// The issue-stall memo is not in the image; until a real Tick re-derives
	// it the core counts as woken, whatever horizon the loop cached for it.
	c.stall, c.refusal = issueStale, mem.Watch{}

	if r.Err() != nil {
		return
	}
	if c.head < 0 || c.head >= c.robSize || c.tail < 0 || c.tail >= c.robSize ||
		c.count < 0 || c.count > c.robSize ||
		c.pendHead < -1 || c.pendHead >= c.robSize ||
		c.lastLoadSlot < -1 || c.lastLoadSlot >= c.robSize {
		r.Fail(fmt.Errorf("cpu: snapshot ROB cursors out of range: %w", snapshot.ErrCorrupt))
	}
}

func saveInstr(w *snapshot.Writer, ins *trace.Instr) {
	w.U64(ins.IP)
	w.U8(uint8(ins.Op))
	w.U64(uint64(ins.Addr))
	w.Bool(ins.Taken)
	w.U8(ins.ExecLat)
	w.Bool(ins.DependsOnPrevLoad)
}

func loadInstr(r *snapshot.Reader, ins *trace.Instr) {
	ins.IP = r.U64()
	ins.Op = trace.Op(r.U8())
	ins.Addr = mem.Addr(r.U64())
	ins.Taken = r.Bool()
	ins.ExecLat = r.U8()
	ins.DependsOnPrevLoad = r.Bool()
}

func saveStats(w *snapshot.Writer, s *Stats) {
	w.U64(s.Cycles)
	w.U64(s.Retired)
	w.U64(s.Loads)
	w.U64(s.Stores)
	w.U64(s.Branches)
	w.U64(s.Mispredicts)
	w.U64(s.ROBStallCycles)
	for i := range s.StallsByLevel {
		w.U64(s.StallsByLevel[i])
	}
	for i := range s.LoadLatency {
		w.U64(s.LoadLatency[i].Sum)
		w.U64(s.LoadLatency[i].Count)
	}
	w.U64(s.FetchStallCycles)
	w.U64(s.LoadsStalledHead)
	w.U64(s.L1DAccesses)
	w.U64(s.CriticalResponses)
}

func loadStats(r *snapshot.Reader, s *Stats) {
	s.Cycles = r.U64()
	s.Retired = r.U64()
	s.Loads = r.U64()
	s.Stores = r.U64()
	s.Branches = r.U64()
	s.Mispredicts = r.U64()
	s.ROBStallCycles = r.U64()
	for i := range s.StallsByLevel {
		s.StallsByLevel[i] = r.U64()
	}
	for i := range s.LoadLatency {
		s.LoadLatency[i].Sum = r.U64()
		s.LoadLatency[i].Count = r.U64()
	}
	s.FetchStallCycles = r.U64()
	s.LoadsStalledHead = r.U64()
	s.L1DAccesses = r.U64()
	s.CriticalResponses = r.U64()
}

// Save serializes the branch predictor: weights and global history. lastSum
// and tableSel are Predict→Update scratch consumed within one dispatch call
// and never live across cycles.
func (p *Perceptron) Save(w *snapshot.Writer) {
	for _, t := range p.tables {
		w.I8s(t)
	}
	w.U64(p.history)
}

// Load restores the branch predictor.
func (p *Perceptron) Load(r *snapshot.Reader) {
	for _, t := range p.tables {
		r.I8s(t)
	}
	p.history = r.U64()
}
