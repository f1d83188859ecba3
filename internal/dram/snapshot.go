package dram

import (
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

// State walks the memory system; loading needs an identically-configured
// receiver.
func (d *DRAM) State(s *snapshot.Coder) {
	for i := range d.chans {
		d.chans[i].state(s, &d.cfg)
		if s.Err() != nil {
			return
		}
	}
	s.U64(&d.cycle)
	s.U64(&d.stats.Reads)
	s.U64(&d.stats.Writes)
	s.U64(&d.stats.PrefetchReads)
	s.U64(&d.stats.RowHits)
	s.U64(&d.stats.RowMisses)
	s.U64(&d.stats.RowConflicts)
	s.U64(&d.stats.RQFullEvents)
	s.U64(&d.stats.WQFullEvents)
	s.U64(&d.stats.Refreshes)
	d.stats.QueueDelay.State(s)
	d.stats.ServiceLatency.State(s)
	s.U64(&d.stats.BusBusyCycles)
	s.U64(&d.stats.Cycles)
}

func (c *channel) state(s *snapshot.Coder, cfg *Config) {
	banks := uint64(len(c.banks))
	rn := s.Len("dram: read queue", len(c.rdBk), cfg.RQ, mem.RequestBytes+3*8)
	if s.Loading() {
		c.rdReq = c.rdReq[:rn]
		c.rdArrived = c.rdArrived[:rn]
		c.rdRow = c.rdRow[:rn]
		c.rdBk = c.rdBk[:rn]
	}
	for j := range c.rdBk {
		c.rdReq[j].State(s)
		s.U64(&c.rdArrived[j])
		s.U64(&c.rdRow[j])
		s.U64(&c.rdBk[j])
		if s.Loading() && c.rdBk[j] >= banks {
			s.Corrupt("dram: read-queue bank %d out of range", c.rdBk[j])
			return
		}
	}
	wn := s.Len("dram: write queue", len(c.wrBk), cfg.WQ, 2*8)
	if s.Loading() {
		c.wrRow = c.wrRow[:wn]
		c.wrBk = c.wrBk[:wn]
	}
	for j := range c.wrBk {
		s.U64(&c.wrRow[j])
		s.U64(&c.wrBk[j])
		if s.Loading() && c.wrBk[j] >= banks {
			s.Corrupt("dram: write-queue bank %d out of range", c.wrBk[j])
			return
		}
	}
	if s.Loading() {
		// The per-bank counts are rebuilt from the queues; the image carries
		// their sum as a check.
		for b := range c.banks {
			c.banks[b].rdQueued, c.banks[b].wrQueued = 0, 0
		}
		for _, bk := range c.rdBk {
			c.banks[bk].rdQueued++
		}
		for _, bk := range c.wrBk {
			c.banks[bk].wrQueued++
		}
	}
	for b := range c.banks {
		bk := &c.banks[b]
		s.I64(&bk.openRow)
		s.U64(&bk.busyUntil)
		queued := bk.rdQueued + bk.wrQueued
		s.I32(&queued)
		if s.Loading() && queued != bk.rdQueued+bk.wrQueued {
			s.Corrupt("dram: bank %d counts %d queued entries, the queues hold %d",
				b, queued, bk.rdQueued+bk.wrQueued)
			return
		}
	}
	if s.Loading() {
		c.refreshDeadlines()
	}
	s.U64(&c.busFreeAt)
	s.U64(&c.nextRefresh)
	s.U64(&c.refreshEnd)
	s.Bool(&c.draining)
	s.U64(&c.utilWindow)
	s.U64(&c.utilCycles)
	s.F64(&c.recentUtil)
	s.U64(&c.epochCycles)
}
