// Package dram models the multi-channel DDR4-3200 memory system of the
// baseline (Table 3): per-channel FR-FCFS controllers with 64-entry read and
// write queues, 16 banks with open-page 4KB row buffers, tRP/tRCD/CAS timing,
// serialized data-bus transfers (the 25.6 GB/s per-channel ceiling), write
// drain at a 7/8 watermark, and PADC-style prefetch-aware scheduling that —
// with CLIP — honours the criticality flag by giving critical prefetches
// demand priority.
//
// Constrained bandwidth shows up exactly as in the paper: with few channels,
// bursty prefetch traffic lengthens the read queues and every request's
// queueing delay inflates, including demands that hit in on-chip caches
// behind a full MSHR chain.
package dram

import (
	"fmt"
	"math/bits"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/stats"
)

// Config sizes the memory system.
type Config struct {
	Channels int
	RQ, WQ   int // read/write queue entries per channel

	// Transfer is the data-bus occupancy per 64B line (10 cycles at
	// 25.6GB/s on a 4GHz core).
	Transfer int

	// REFI is the refresh interval and RFC the refresh cycle time, in core
	// cycles (DDR4: tREFI 7.8us, tRFC ~350ns at a 4GHz core clock). During
	// a refresh the whole channel is blocked. Zero REFI disables refresh.
	REFI, RFC int

	// PADC enables prefetch-aware demand-first scheduling (Lee et al.).
	PADC bool
	// CriticalPriority treats CLIP-flagged critical prefetches as demands in
	// the scheduler (the paper's "load criticality conscious DRAM").
	CriticalPriority bool
}

// Table 3's DRAM parameters that no configuration varies.
const (
	banks    = 16 // banks per channel
	rowLines = 64 // lines per row buffer (4KB row)

	// Timing in core cycles (4 GHz core, 12.5ns tRP=tRCD=CAS => 50 cycles).
	tCAS, tRCD, tRP = 50, 50, 50

	// Write drain starts when the WQ fills beyond 7/8 of its entries.
	writeWatermarkNum, writeWatermarkDen = 7, 8
)

// DefaultConfig matches Table 3 for the given channel count.
func DefaultConfig(channels int) Config {
	return Config{
		Channels: channels, RQ: 64, WQ: 64, Transfer: 10,
		REFI: 31200, RFC: 1400, PADC: true,
	}
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.RQ <= 0 || c.WQ <= 0 {
		return fmt.Errorf("dram: non-positive sizes in %+v", c)
	}
	if c.Transfer <= 0 {
		return fmt.Errorf("dram: non-positive timing in %+v", c)
	}
	return nil
}

// Stats aggregates controller counters across channels.
type Stats struct {
	Reads          uint64
	Writes         uint64
	PrefetchReads  uint64
	RowHits        uint64
	RowMisses      uint64
	RowConflicts   uint64
	RQFullEvents   uint64
	WQFullEvents   uint64
	Refreshes      uint64
	QueueDelay     stats.LatencyAcc // acceptance-to-schedule delay of reads
	ServiceLatency stats.LatencyAcc // acceptance-to-data delay of reads
	BusBusyCycles  uint64
	Cycles         uint64
}

// Utilization returns the fraction of data-bus cycles in use, averaged over
// channels (DSPatch's bandwidth signal).
func (s *Stats) Utilization() float64 {
	return stats.Ratio(s.BusBusyCycles, s.Cycles)
}

// RowHitRate returns row-buffer hit rate.
func (s *Stats) RowHitRate() float64 {
	return stats.Ratio(s.RowHits, s.RowHits+s.RowMisses+s.RowConflicts)
}

type bank struct {
	openRow   int64 // -1 closed
	busyUntil uint64
	// rdQueued/wrQueued count the read/write queue entries routed to this
	// bank. Rebuilt from the queue columns on restore (the image carries their
	// sum).
	rdQueued, wrQueued int32
}

// channel keeps its read and write queues as index-aligned column arrays
// rather than slices of entry structs: the scheduler re-ranks the whole read
// queue every controller cycle, and ranking touches only the routing columns
// (bank, row, arrival) — one word per entry per column — while the 56-byte
// request payload stays cold until the winning entry is dispatched. Routing
// (bank, row) is cached at Issue time; it is three divisions per entry that
// never change after enqueue. All columns are carved with full queue capacity
// at New, so enqueues never reallocate.
type channel struct {
	// Read-queue columns: entry i is rdReq[i]/rdArrived[i]/rdRow[i]/rdBk[i].
	// All routing columns share one word-sized element type — rows are
	// nonnegative so the int64 bit-casts roundtrip exactly — which lets every
	// column be carved from a single per-channel allocation at New.
	rdReq     []mem.Request
	rdArrived []uint64
	rdRow     []uint64 // bit-cast int64 row ids
	rdBk      []uint64
	// Write-queue columns. The write payload is never read back by the
	// scheduler (writeback data is not modeled), so only routing is kept.
	wrRow []uint64 // bit-cast int64 row ids
	wrBk  []uint64

	// rdPops/wrPops are the epochs a requester refused by a full read/write
	// queue watches (mem.Staller): they advance on every dequeue. Rebuilt
	// state, never snapshotted — watchers compare against the value they saw.
	rdPops, wrPops uint64

	// rdFree/wrFree are the channel's schedule deadlines: the earliest cycle
	// the bank of some queued read (write) is free, mem.NoEvent with none
	// queued. A schedule attempt before its deadline finds every candidate's
	// bank busy, so Tick makes none and NextEvent reads the horizon off them.
	// Bank timing changes under a queue only at a dispatch and at a refresh
	// (refreshDeadlines); an enqueue folds its own bank in. Rebuilt state.
	rdFree, wrFree uint64

	id          int // index in DRAM.chans (queue numbering of OnDequeue)
	banks       []bank
	busFreeAt   uint64
	nextRefresh uint64
	refreshEnd  uint64
	draining    bool
	utilWindow  uint64 // busy cycles in current utilization epoch
	utilCycles  uint64
	recentUtil  float64
	epochCycles uint64
}

// removeRead closes the gap left by dispatching read-queue entry i, keeping
// every column index-aligned. copy on each column compiles to memmove — no
// per-entry struct shuffling.
func (c *channel) removeRead(i int) {
	n := len(c.rdBk) - 1
	c.banks[c.rdBk[i]].rdQueued--
	copy(c.rdReq[i:n], c.rdReq[i+1:])
	copy(c.rdArrived[i:n], c.rdArrived[i+1:])
	copy(c.rdRow[i:n], c.rdRow[i+1:])
	copy(c.rdBk[i:n], c.rdBk[i+1:])
	c.rdReq = c.rdReq[:n]
	c.rdArrived = c.rdArrived[:n]
	c.rdRow = c.rdRow[:n]
	c.rdBk = c.rdBk[:n]
	c.rdPops++
}

// removeWrite is removeRead's write-queue counterpart.
func (c *channel) removeWrite(i int) {
	n := len(c.wrBk) - 1
	c.banks[c.wrBk[i]].wrQueued--
	copy(c.wrRow[i:n], c.wrRow[i+1:])
	copy(c.wrBk[i:n], c.wrBk[i+1:])
	c.wrRow = c.wrRow[:n]
	c.wrBk = c.wrBk[:n]
	c.wrPops++
}

// refreshDeadlines recomputes both schedule deadlines from the banks. It runs
// after every dispatch, so the loop is branch-free: a bank with nothing
// queued of a kind contributes mem.NoEvent (all ones) to that kind's minimum.
func (c *channel) refreshDeadlines() {
	rd, wr := mem.NoEvent, mem.NoEvent
	for i := range c.banks {
		b := &c.banks[i]
		// -n>>31 is all ones for a count n > 0 and zero for n == 0.
		rd = min(rd, b.busyUntil|^uint64(int64(-b.rdQueued>>31)))
		wr = min(wr, b.busyUntil|^uint64(int64(-b.wrQueued>>31)))
	}
	c.rdFree, c.wrFree = rd, wr
}

// DRAM is the whole memory system.
type DRAM struct {
	cfg    Config
	chans  []channel
	onResp func(*mem.Response)
	// onDequeue, when set, runs just before a queue dequeues (see OnDequeue).
	onDequeue func(queue int)
	cycle     uint64
	stats     Stats
	// resp buffers the response handed to onResp so the pointer passed
	// through the callback never forces a per-read heap allocation; the
	// callee consumes it synchronously.
	resp mem.Response

	// scheduleRead scratch bitmaps, one bit per read-queue entry, sized to
	// ceil(RQ/64) words at New and rebuilt from the routing columns every
	// schedule attempt: eligibility (target bank free), row hit, and demand
	// class. Class selection is then word arithmetic plus TrailingZeros64
	// instead of a per-entry rank comparison loop.
	eligW []uint64
	rhitW []uint64
	dmndW []uint64

	// refusedLine/refusedCh are the line Issue last refused and its channel
	// (ChannelOf; line 0 is on channel 0, so the zero value is consistent).
	refusedLine uint64
	refusedCh   int
	// drainHi/drainLo are the write-drain hysteresis watermarks in entries.
	drainHi, drainLo int
	// everyCycle ignores the schedule deadlines (ScanEveryCycle).
	everyCycle bool
	// work counts the scheduler's own effort (SchedulerWork).
	work SchedulerWork
}

// SchedulerWork counts schedule attempts — queue scans — and the futile ones
// that found no request with a free bank. It describes the simulator, not the
// modelled controller: not part of Stats, of a snapshot or of any result.
type SchedulerWork struct {
	ReadAttempts, ReadFutile   uint64
	WriteAttempts, WriteFutile uint64
}

// SchedulerWork returns the scheduler's effort counters so far.
func (d *DRAM) SchedulerWork() SchedulerWork { return d.work }

// ScanEveryCycle makes every channel attempt a schedule on every cycle
// whatever its deadlines say — the strict per-cycle oracle the deadline-gated
// controller is checked against. Results are identical either way.
func (d *DRAM) ScanEveryCycle() { d.everyCycle = true }

// New builds the memory system.
func New(cfg Config) (*DRAM, error) { return NewIn(nil, cfg) }

// NewIn is New with every slab taken from a (mem.Make): one per column type
// for all channels, each channel's columns carved from it.
func NewIn(a *mem.Arena, cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Channels
	d := &DRAM{cfg: cfg, chans: mem.Make[channel](a, n),
		drainHi: cfg.WQ * writeWatermarkNum / writeWatermarkDen, drainLo: cfg.WQ / 4}
	words := (cfg.RQ + 63) / 64
	scratch := mem.Make[uint64](a, 3*words)
	d.eligW = scratch[0*words : 1*words]
	d.rhitW = scratch[1*words : 2*words]
	d.dmndW = scratch[2*words : 3*words]
	// Queue columns carved once with full capacity: Issue-time appends never
	// reallocate, and a dispatched entry's gap closes with memmoves over the
	// columns. Each column is carved empty with its full private capacity.
	bankSlab := mem.Make[bank](a, n*banks)
	cols := mem.Make[uint64](a, n*(3*cfg.RQ+2*cfg.WQ))
	reqs := mem.Make[mem.Request](a, n*cfg.RQ)
	for i := range d.chans {
		ch := &d.chans[i]
		ch.id = i
		ch.rdFree, ch.wrFree = mem.NoEvent, mem.NoEvent
		ch.banks = mem.Carve(&bankSlab, banks)
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		ch.rdArrived = mem.Carve(&cols, cfg.RQ)[:0]
		ch.rdRow = mem.Carve(&cols, cfg.RQ)[:0]
		ch.rdBk = mem.Carve(&cols, cfg.RQ)[:0]
		ch.wrRow = mem.Carve(&cols, cfg.WQ)[:0]
		ch.wrBk = mem.Carve(&cols, cfg.WQ)[:0]
		ch.rdReq = mem.Carve(&reqs, cfg.RQ)[:0]
	}
	return d, nil
}

// MustNew panics on config errors.
func MustNew(cfg Config) *DRAM {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Stats returns the live counters.
func (d *DRAM) Stats() *Stats { return &d.stats }

// OnResponse registers the fill sink (the LLC, via the NoC adapter).
func (d *DRAM) OnResponse(f func(*mem.Response)) { d.onResp = f }

// Queues returns the number of controller queues a request can be refused
// by: a read and a write queue per channel, numbered by QueueOf.
func (d *DRAM) Queues() int { return 2 * len(d.chans) }

// QueueOf returns the queue req competes for — the one whose dequeue epoch
// StallEpoch hands out when it is full.
func (d *DRAM) QueueOf(req *mem.Request) int {
	ch := d.ChannelOf(req.Addr)
	if req.Type == mem.Writeback {
		return 2*ch + 1
	}
	return 2 * ch
}

// OnDequeue registers f to run just before a queue gives up an entry, while
// the queue still refuses and its epoch still stands: a requester that is
// charged for its refused retries lazily must be charged before the
// refusal ends. f may call Refused; it must not Issue.
func (d *DRAM) OnDequeue(f func(queue int)) { d.onDequeue = f }

// Idle reports whether no request is queued on any channel.
func (d *DRAM) Idle() bool {
	for i := range d.chans {
		if len(d.chans[i].rdBk) > 0 || len(d.chans[i].wrBk) > 0 {
			return false
		}
	}
	return true
}

// ChannelUtilization returns the most recent per-channel bus utilization —
// DSPatch's per-controller signal (deliberately myopic, as the paper notes).
func (d *DRAM) ChannelUtilization(ch int) float64 {
	if ch < 0 || ch >= len(d.chans) {
		return 0
	}
	return d.chans[ch].recentUtil
}

// GlobalUtilization averages utilization across channels.
func (d *DRAM) GlobalUtilization() float64 {
	var sum float64
	for i := range d.chans {
		sum += d.chans[i].recentUtil
	}
	return sum / float64(len(d.chans))
}

// ChannelOf returns the channel addr is interleaved to. A refusal is asked
// about several times in a row — StallEpoch, QueueOf, the retry — so Issue
// notes the channel of the line it last refused and the division is not
// repeated for it.
func (d *DRAM) ChannelOf(addr mem.Addr) int {
	line := addr.LineID()
	if line == d.refusedLine {
		return d.refusedCh
	}
	return int(line % uint64(d.cfg.Channels))
}

// bankRow returns where in its channel addr lives.
func (d *DRAM) bankRow(addr mem.Addr) (bk int, row int64) {
	perCh := addr.LineID() / uint64(d.cfg.Channels)
	return int(perCh % banks), int64(perCh / banks / rowLines)
}

// Issue implements cache.Lower: reads (loads/prefetches) enter the read
// queue, writebacks the write queue. Returns false when the target queue is
// full — except prefetches, which are dropped (the controller never blocks
// the chip on a prefetch).
func (d *DRAM) Issue(req *mem.Request) bool {
	ch := d.ChannelOf(req.Addr)
	c := &d.chans[ch]
	if req.Type == mem.Writeback {
		if len(c.wrBk) >= d.cfg.WQ {
			d.stats.WQFullEvents++
			d.refusedLine, d.refusedCh = req.Addr.LineID(), ch
			return false
		}
		bk, row := d.bankRow(req.Addr)
		c.wrRow = append(c.wrRow, uint64(row))
		c.wrBk = append(c.wrBk, uint64(bk))
		c.banks[bk].wrQueued++
		c.wrFree = min(c.wrFree, c.banks[bk].busyUntil)
		return true
	}
	if len(c.rdBk) >= d.cfg.RQ {
		d.stats.RQFullEvents++
		if req.Type == mem.Prefetch && !req.Owned {
			return true // dropped
		}
		d.refusedLine, d.refusedCh = req.Addr.LineID(), ch
		return false
	}
	// The queue columns are carved with the full queue capacity at New, so
	// these appends (and the write queue's above) never grow them.
	bk, row := d.bankRow(req.Addr)
	c.rdReq = append(c.rdReq, *req)
	c.rdArrived = append(c.rdArrived, d.cycle)
	c.rdRow = append(c.rdRow, uint64(row))
	c.rdBk = append(c.rdBk, uint64(bk))
	c.banks[bk].rdQueued++
	c.rdFree = min(c.rdFree, c.banks[bk].busyUntil)
	return true
}

// StallEpoch implements mem.Staller: a request refused by a full queue is
// refused again, counting one more full event, until that queue — the write
// queue for writebacks, the read queue for everything else — dequeues.
// Droppable prefetches are never refused.
func (d *DRAM) StallEpoch(req *mem.Request) *uint64 {
	c := &d.chans[d.ChannelOf(req.Addr)]
	switch {
	case req.Type == mem.Writeback:
		if len(c.wrBk) >= d.cfg.WQ {
			return &c.wrPops
		}
	case len(c.rdBk) >= d.cfg.RQ && !(req.Type == mem.Prefetch && !req.Owned):
		return &c.rdPops
	}
	return nil
}

// Refused implements mem.Staller: n refused Issue(req) calls count n full
// events on the queue that refused it.
func (d *DRAM) Refused(req *mem.Request, n uint64) {
	if invariant.Enabled {
		invariant.Check(d.StallEpoch(req) != nil,
			"dram: %d retries of %v %x charged as refused, but Issue would accept",
			n, req.Type, uint64(req.Addr))
	}
	if req.Type == mem.Writeback {
		d.stats.WQFullEvents += n
	} else {
		d.stats.RQFullEvents += n
	}
}

// Tick advances one memory-controller cycle on every channel.
func (d *DRAM) Tick(cycle uint64) {
	d.cycle = cycle
	// Cycles counts channel-cycles so Utilization() stays in [0,1]
	// regardless of channel count.
	d.stats.Cycles += uint64(len(d.chans))
	for i := range d.chans {
		d.tickChannel(&d.chans[i])
	}
}

const utilEpoch = 2048 // cycles per utilization sample

func (d *DRAM) tickChannel(c *channel) {
	// Refresh: at every tREFI the channel stalls for tRFC and all rows
	// close (auto-precharge), costing row-buffer locality.
	if d.cfg.REFI > 0 {
		if c.nextRefresh == 0 {
			c.nextRefresh = uint64(d.cfg.REFI)
		}
		if d.cycle >= c.nextRefresh {
			if invariant.Enabled {
				// Per-cycle ticking reaches the deadline exactly; firing late
				// means the simulation loop skipped past a refresh.
				invariant.Check(d.cycle == c.nextRefresh,
					"dram: refresh deadline %d fired at cycle %d", c.nextRefresh, d.cycle)
			}
			c.nextRefresh += uint64(d.cfg.REFI)
			c.refreshEnd = d.cycle + uint64(d.cfg.RFC)
			d.stats.Refreshes++
			for b := range c.banks {
				c.banks[b].openRow = -1
				if c.banks[b].busyUntil < c.refreshEnd {
					c.banks[b].busyUntil = c.refreshEnd
				}
			}
			c.refreshDeadlines()
		}
		if d.cycle < c.refreshEnd {
			return // channel busy refreshing
		}
	}

	// Utilization accounting: busy cycles are credited at schedule time
	// (Transfer cycles per operation), not derived from busFreeAt, which
	// points past the bank-access latency and would overstate utilization.
	c.epochCycles++
	if c.epochCycles >= utilEpoch {
		u := float64(c.utilWindow) / float64(c.epochCycles)
		if u > 1 {
			u = 1
		}
		c.recentUtil = u
		c.utilWindow, c.epochCycles = 0, 0
	}

	// Write drain hysteresis.
	if len(c.wrBk) >= d.drainHi {
		c.draining = true
	} else if len(c.wrBk) <= d.drainLo {
		c.draining = false
	}

	// Reads prioritized over writes unless draining (Table 3). Each attempt
	// waits for its deadline: before it, the scan would find no free bank.
	if c.draining && d.due(c, c.wrFree, c.wrBk) && d.scheduleWrite(c) {
		return
	}
	if d.due(c, c.rdFree, c.rdBk) && d.scheduleRead(c) {
		return
	}
	// Opportunistic write when idle.
	if len(c.rdBk) == 0 && d.due(c, c.wrFree, c.wrBk) {
		d.scheduleWrite(c)
	}
}

// due reports whether a schedule attempt over the queue whose bank column is
// bks and whose deadline is free is worth making this cycle.
func (d *DRAM) due(c *channel, free uint64, bks []uint64) bool {
	if free <= d.cycle || (d.everyCycle && len(bks) > 0) {
		return true
	}
	if invariant.Enabled {
		for _, bk := range bks {
			invariant.Check(c.banks[bk].busyUntil > d.cycle,
				"dram: channel %d schedule gated off until %d at cycle %d, but queued bank %d is free since %d",
				c.id, free, d.cycle, bk, c.banks[bk].busyUntil)
		}
	}
	return false
}

// NextEvent returns the earliest cycle >= now at which Tick can do real
// work: a refresh deadline (or refresh completion), or the earliest schedule
// deadline of a queue it would schedule from. Utilization-epoch rollovers are
// deliberately not folded in — SkipCycles replays them in bulk, and nothing
// reads the utilization signal during a skipped window (the simulation
// loop's horizon already folds every reader's own deadline).
func (d *DRAM) NextEvent(now uint64) uint64 {
	next := mem.NoEvent
	for i := range d.chans {
		c := &d.chans[i]
		if d.cfg.REFI > 0 {
			nr := c.nextRefresh
			if nr == 0 {
				nr = uint64(d.cfg.REFI) // first Tick initializes it to this
			}
			if nr <= now {
				return now
			}
			if nr < next {
				next = nr
			}
			if now < c.refreshEnd {
				// Refreshing: the channel does nothing else until the end.
				if c.refreshEnd < next {
					next = c.refreshEnd
				}
				continue
			}
		}
		// A schedule attempt considers only bank-free requests; the shared
		// data bus delays completion, never eligibility. Writes are attempted
		// only while draining or with no read queued (tickChannel), and the
		// queues do not change before the next Tick.
		e := c.rdFree
		if len(c.rdBk) == 0 || len(c.wrBk) >= d.drainHi || (c.draining && len(c.wrBk) > d.drainLo) {
			e = min(e, c.wrFree)
		}
		if e <= now {
			return now
		} else if e < next {
			next = e
		}
	}
	return next
}

// SkipCycles bulk-applies the per-cycle accounting of the n skipped cycles
// [from, from+n): channel-cycle counting, utilization-epoch rollovers, and
// the write-drain hysteresis (whose inputs are constant across an idle
// window). The caller proved via NextEvent that no refresh deadline falls
// inside the window and no queued request becomes schedulable in it, and
// the controller clock must land on from+n-1 so requests issued at the wake
// cycle are stamped exactly as in the per-cycle loop.
func (d *DRAM) SkipCycles(from, n uint64) {
	if n == 0 {
		return
	}
	if invariant.Enabled {
		invariant.Check(d.NextEvent(from) >= from+n,
			"dram: skipping [%d,%d) past next event %d", from, from+n, d.NextEvent(from))
	}
	d.stats.Cycles += n * uint64(len(d.chans))
	for i := range d.chans {
		c := &d.chans[i]
		if d.cfg.REFI > 0 {
			if c.nextRefresh == 0 {
				c.nextRefresh = uint64(d.cfg.REFI)
			}
			if from < c.refreshEnd {
				// Entirely inside a refresh (NextEvent folds refreshEnd): the
				// ticked path returns before any epoch accounting.
				continue
			}
		}
		rem := n
		for rem > 0 {
			step := uint64(utilEpoch) - c.epochCycles
			if step > rem {
				step = rem
			}
			c.epochCycles += step
			rem -= step
			if c.epochCycles >= utilEpoch {
				u := float64(c.utilWindow) / float64(c.epochCycles)
				if u > 1 {
					u = 1
				}
				c.recentUtil = u
				c.utilWindow, c.epochCycles = 0, 0
			}
		}
		if len(c.wrBk) >= d.drainHi {
			c.draining = true
		} else if len(c.wrBk) <= d.drainLo {
			c.draining = false
		}
	}
	d.cycle = from + n - 1
}

// agePromote is the queueing age after which a deprioritized prefetch is
// promoted to demand rank; PADC-style schedulers bound prefetch waiting so
// in-flight MSHRs upstream cannot be starved indefinitely.
const agePromote = 600

// scheduleRead picks the next read with PADC/FR-FCFS class ranking (lower is
// better; FCFS — lowest queue index — breaks ties within a class):
//
//	demand && rowHit -> 0      demand = non-prefetch, or a CLIP-critical
//	demand           -> 1               prefetch under CriticalPriority, or
//	rowHit           -> 2               any prefetch older than agePromote
//	otherwise        -> 3
//
// Without PADC, FR-FCFS ignores request type: rowHit -> 0, otherwise -> 1.
//
// One pass over the routing columns builds eligibility / row-hit / demand
// bitmaps; the winner is then the first set bit of the best nonempty class
// word — identical to the old per-entry rank loop, which also took the first
// entry of the globally minimal rank.
func (d *DRAM) scheduleRead(c *channel) bool {
	n := len(c.rdBk)
	d.work.ReadAttempts++
	words := (n + 63) / 64
	elig, rhit, dmnd := d.eligW, d.rhitW, d.dmndW
	for w := 0; w < words; w++ {
		elig[w], rhit[w], dmnd[w] = 0, 0, 0
	}
	promoteBefore := uint64(0)
	if d.cycle >= agePromote {
		promoteBefore = d.cycle - agePromote
	}
	for i := 0; i < n; i++ {
		b := &c.banks[c.rdBk[i]]
		if b.busyUntil > d.cycle {
			continue
		}
		bit := uint64(1) << (i & 63)
		w := i >> 6
		elig[w] |= bit
		if b.openRow == int64(c.rdRow[i]) {
			rhit[w] |= bit
		}
		req := &c.rdReq[i]
		if req.Type != mem.Prefetch ||
			(d.cfg.CriticalPriority && req.Critical) ||
			(d.cycle >= agePromote && c.rdArrived[i] <= promoteBefore) {
			dmnd[w] |= bit
		}
	}
	best := -1
	if d.cfg.PADC {
		best = firstBit(elig, rhit, dmnd, words)
	} else {
		// FR-FCFS without PADC: row hits first, then anything eligible.
		for w := 0; w < words && best < 0; w++ {
			if m := elig[w] & rhit[w]; m != 0 {
				best = w<<6 + bits.TrailingZeros64(m)
			}
		}
		for w := 0; w < words && best < 0; w++ {
			if m := elig[w]; m != 0 {
				best = w<<6 + bits.TrailingZeros64(m)
			}
		}
	}
	if best < 0 {
		d.work.ReadFutile++
		return false
	}

	bk, row := c.rdBk[best], int64(c.rdRow[best])
	arrived := c.rdArrived[best]
	isPrefetch := c.rdReq[best].Type == mem.Prefetch
	d.resp.Req = c.rdReq[best]
	if d.onDequeue != nil {
		d.onDequeue(2 * c.id)
	}
	c.removeRead(best)
	b := &c.banks[bk]
	if invariant.Enabled {
		// tRP/tRCD ordering: a bank may only be (re-)activated once its
		// previous access — including any refresh-forced precharge — retired.
		invariant.Check(b.busyUntil <= d.cycle,
			"dram: bank %d activated at cycle %d while busy until %d",
			bk, d.cycle, b.busyUntil)
	}
	var access uint64
	switch {
	case b.openRow == row:
		access = tCAS
		d.stats.RowHits++
	case b.openRow < 0:
		access = tRCD + tCAS
		d.stats.RowMisses++
	default:
		access = tRP + tRCD + tCAS
		d.stats.RowConflicts++
	}
	b.openRow = row

	ready := d.cycle + access
	// Serialize on the shared data bus.
	busAt := ready
	if c.busFreeAt > busAt {
		busAt = c.busFreeAt
	}
	done := busAt + uint64(d.cfg.Transfer)
	if invariant.Enabled {
		// A row conflict must pay at least the full tRP+tRCD+CAS of a row
		// hit, and the data bus can only move forward in time.
		invariant.Check(access >= tCAS,
			"dram: bank %d access latency %d below CAS %d", bk, access, tCAS)
		invariant.Check(done >= c.busFreeAt && busAt >= ready,
			"dram: data-bus schedule went backwards (busAt=%d ready=%d done=%d busFreeAt=%d)",
			busAt, ready, done, c.busFreeAt)
	}
	c.busFreeAt = done
	b.busyUntil = ready
	c.refreshDeadlines()
	c.utilWindow += uint64(d.cfg.Transfer)
	d.stats.BusBusyCycles += uint64(d.cfg.Transfer)

	d.stats.Reads++
	if isPrefetch {
		d.stats.PrefetchReads++
	}
	d.stats.QueueDelay.Add(d.cycle - arrived)
	d.stats.ServiceLatency.Add(done - arrived)

	if d.onResp != nil {
		// d.resp.Req was filled from the column before the dequeue memmove.
		d.resp.ServedBy = mem.LevelDRAM
		d.resp.DoneCycle = done
		d.resp.WasPrefetch = false
		d.resp.LatePF = false
		d.onResp(&d.resp)
	}
	return true
}

// firstBit returns the queue index of the first set bit of the best nonempty
// PADC class, scanning classes in rank order (demand row-hit, demand,
// prefetch row-hit, prefetch).
func firstBit(elig, rhit, dmnd []uint64, words int) int {
	for class := 0; class < 4; class++ {
		for w := 0; w < words; w++ {
			m := elig[w]
			switch class {
			case 0:
				m &= dmnd[w] & rhit[w]
			case 1:
				m &= dmnd[w] &^ rhit[w]
			case 2:
				m &= rhit[w] &^ dmnd[w]
			case 3:
				m &^= dmnd[w] | rhit[w]
			}
			if m != 0 {
				return w<<6 + bits.TrailingZeros64(m)
			}
		}
	}
	return -1
}

// scheduleWrite dispatches the first write whose bank is free (writes are
// drained oldest-first; they are latency-insensitive so no class ranking).
func (d *DRAM) scheduleWrite(c *channel) bool {
	d.work.WriteAttempts++
	for i := range c.wrBk {
		bk, row := c.wrBk[i], int64(c.wrRow[i])
		b := &c.banks[bk]
		if b.busyUntil > d.cycle {
			continue
		}
		var access uint64
		switch {
		case b.openRow == row:
			access = tCAS
			d.stats.RowHits++
		case b.openRow < 0:
			access = tRCD + tCAS
			d.stats.RowMisses++
		default:
			access = tRP + tRCD + tCAS
			d.stats.RowConflicts++
		}
		b.openRow = row
		ready := d.cycle + access
		busAt := ready
		if c.busFreeAt > busAt {
			busAt = c.busFreeAt
		}
		if invariant.Enabled {
			invariant.Check(busAt+uint64(d.cfg.Transfer) >= c.busFreeAt,
				"dram: write data-bus schedule went backwards (busAt=%d busFreeAt=%d)",
				busAt, c.busFreeAt)
		}
		c.busFreeAt = busAt + uint64(d.cfg.Transfer)
		b.busyUntil = ready
		c.utilWindow += uint64(d.cfg.Transfer)
		d.stats.BusBusyCycles += uint64(d.cfg.Transfer)
		if d.onDequeue != nil {
			d.onDequeue(2*c.id + 1)
		}
		c.removeWrite(i)
		c.refreshDeadlines()
		d.stats.Writes++
		return true
	}
	d.work.WriteFutile++
	return false
}
