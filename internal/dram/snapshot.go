package dram

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// DRAM checkpointing. The per-channel queue columns were carved with full
// queue capacity at New and removeRead/removeWrite only reslice them, so a
// restore reslices the same backing to the saved occupancy and decodes
// entries in place — no reallocation. The scheduler scratch bitmaps are
// rebuilt from the columns every schedule attempt and carry no state; the
// per-bank read/write counts and the schedule deadlines are rebuilt from the
// restored queues and banks.

// Save serializes the memory system.
func (d *DRAM) Save(w *snapshot.Writer) {
	for i := range d.chans {
		c := &d.chans[i]
		w.Int(len(c.rdBk))
		for j := range c.rdBk {
			mem.SaveRequest(w, &c.rdReq[j])
			w.U64(c.rdArrived[j])
			w.U64(c.rdRow[j])
			w.U64(c.rdBk[j])
		}
		w.Int(len(c.wrBk))
		for j := range c.wrBk {
			w.U64(c.wrRow[j])
			w.U64(c.wrBk[j])
		}
		for b := range c.banks {
			w.I64(c.banks[b].openRow)
			w.U64(c.banks[b].busyUntil)
			w.I32(c.banks[b].rdQueued + c.banks[b].wrQueued)
		}
		w.U64(c.busFreeAt)
		w.U64(c.nextRefresh)
		w.U64(c.refreshEnd)
		w.Bool(c.draining)
		w.U64(c.utilWindow)
		w.U64(c.utilCycles)
		w.F64(c.recentUtil)
		w.U64(c.epochCycles)
	}
	w.U64(d.cycle)
	w.U64(d.stats.Reads)
	w.U64(d.stats.Writes)
	w.U64(d.stats.PrefetchReads)
	w.U64(d.stats.RowHits)
	w.U64(d.stats.RowMisses)
	w.U64(d.stats.RowConflicts)
	w.U64(d.stats.RQFullEvents)
	w.U64(d.stats.WQFullEvents)
	w.U64(d.stats.Refreshes)
	d.stats.QueueDelay.Save(w)
	d.stats.ServiceLatency.Save(w)
	w.U64(d.stats.BusBusyCycles)
	w.U64(d.stats.Cycles)
}

// Load restores a snapshot taken from an identically-configured memory
// system.
func (d *DRAM) Load(r *snapshot.Reader) {
	for i := range d.chans {
		c := &d.chans[i]
		rn := r.Int()
		if r.Err() != nil {
			return
		}
		if rn < 0 || rn > d.cfg.RQ {
			r.Fail(fmt.Errorf("dram: snapshot read queue %d entries, capacity %d: %w", rn, d.cfg.RQ, snapshot.ErrCorrupt))
			return
		}
		c.rdReq = c.rdReq[:rn]
		c.rdArrived = c.rdArrived[:rn]
		c.rdRow = c.rdRow[:rn]
		c.rdBk = c.rdBk[:rn]
		for j := 0; j < rn; j++ {
			mem.LoadRequest(r, &c.rdReq[j])
			c.rdArrived[j] = r.U64()
			c.rdRow[j] = r.U64()
			c.rdBk[j] = r.U64()
			if r.Err() == nil && c.rdBk[j] >= uint64(len(c.banks)) {
				r.Fail(fmt.Errorf("dram: read-queue bank %d out of range: %w", c.rdBk[j], snapshot.ErrCorrupt))
				return
			}
		}
		wn := r.Int()
		if r.Err() != nil {
			return
		}
		if wn < 0 || wn > d.cfg.WQ {
			r.Fail(fmt.Errorf("dram: snapshot write queue %d entries, capacity %d: %w", wn, d.cfg.WQ, snapshot.ErrCorrupt))
			return
		}
		c.wrRow = c.wrRow[:wn]
		c.wrBk = c.wrBk[:wn]
		for j := 0; j < wn; j++ {
			c.wrRow[j] = r.U64()
			c.wrBk[j] = r.U64()
			if r.Err() == nil && c.wrBk[j] >= uint64(len(c.banks)) {
				r.Fail(fmt.Errorf("dram: write-queue bank %d out of range: %w", c.wrBk[j], snapshot.ErrCorrupt))
				return
			}
		}
		for b := range c.banks {
			c.banks[b].rdQueued, c.banks[b].wrQueued = 0, 0
		}
		for _, bk := range c.rdBk {
			c.banks[bk].rdQueued++
		}
		for _, bk := range c.wrBk {
			c.banks[bk].wrQueued++
		}
		for b := range c.banks {
			c.banks[b].openRow = r.I64()
			c.banks[b].busyUntil = r.U64()
			if q := r.I32(); r.Err() == nil && q != c.banks[b].rdQueued+c.banks[b].wrQueued {
				r.Fail(fmt.Errorf("dram: bank %d counts %d queued entries, the queues hold %d: %w",
					b, q, c.banks[b].rdQueued+c.banks[b].wrQueued, snapshot.ErrCorrupt))
				return
			}
		}
		c.refreshDeadlines()
		c.busFreeAt = r.U64()
		c.nextRefresh = r.U64()
		c.refreshEnd = r.U64()
		c.draining = r.Bool()
		c.utilWindow = r.U64()
		c.utilCycles = r.U64()
		c.recentUtil = r.F64()
		c.epochCycles = r.U64()
	}
	d.cycle = r.U64()
	d.stats.Reads = r.U64()
	d.stats.Writes = r.U64()
	d.stats.PrefetchReads = r.U64()
	d.stats.RowHits = r.U64()
	d.stats.RowMisses = r.U64()
	d.stats.RowConflicts = r.U64()
	d.stats.RQFullEvents = r.U64()
	d.stats.WQFullEvents = r.U64()
	d.stats.Refreshes = r.U64()
	d.stats.QueueDelay.Load(r)
	d.stats.ServiceLatency.Load(r)
	d.stats.BusBusyCycles = r.U64()
	d.stats.Cycles = r.U64()
}
