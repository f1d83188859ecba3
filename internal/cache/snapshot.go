package cache

import (
	"clip/internal/mem"
	"clip/internal/snapshot"
)

// Cache checkpointing: the line-state slab (tags/trigger/dirty/pf/valid are
// views into it; its length follows geometry and level, since only levels
// below the LLC carry the trigger column) and replacement-policy slabs
// restore verbatim; queues and the MSHR file restore by content into the
// construction-time backing, the waiters into the cache's pool, and an
// MSHR's prefetch request only while a prefetch holds the MSHR. The
// sleep memos (headMSHR/headLow/wbLow) are rebuilt state: loading drops them,
// so a cache restored asleep takes one real Tick, is refused exactly as its
// skipped retry would have been, and re-arms. The pop epoch needs no reset:
// whoever watches it is restored alongside and drops its own memo.

// State walks the cache; loading needs an identically-configured receiver.
func (c *Cache) State(s *snapshot.Coder) {
	s.U64s(c.slab)
	c.policy.state(s)

	c.inQ.State(s, mem.RequestBytes+8+1, func(q *queued) {
		q.req.State(s)
		s.U64(&q.ready)
		s.Bool(&q.counted)
	})
	c.wbQ.State(s, mem.RequestBytes, func(q *mem.Request) { q.State(s) })

	c.mshrValid.State(s)
	c.mshrPF.State(s)
	if !s.Fixed("cache: MSHRs", len(c.mshrLine)) {
		return
	}
	for i := range c.mshrLine {
		s.U64((*uint64)(&c.mshrLine[i]))
	}
	s.U64s(c.mshrFirst)
	// Fill reads an MSHR's prefetch request only while the MSHR is live and
	// was allocated by a prefetch, so the image holds those entries alone and
	// loading zeroes the rest.
	for i := range c.mshrPfReq {
		if c.mshrValid.Test(i) && c.mshrPF.Test(i) {
			c.mshrPfReq[i].State(s)
		} else if s.Loading() {
			c.mshrPfReq[i] = mem.Request{}
		}
	}
	// Each MSHR's waiters as a count and then the entries in arrival order;
	// the pool layout and free chain are not in the image. Loading parks the
	// count afresh and fills the chain in place.
	if s.Loading() {
		c.resetWaiters()
	}
	var blank mem.Request
	for i := range c.waitHead {
		n := s.Len("cache: MSHR waiters", c.waitCount(i), snapshot.MaxLen, mem.RequestBytes+8)
		for k := 0; s.Loading() && k < n && s.Err() == nil; k++ {
			c.park(i, &blank)
		}
		for j := c.waitHead[i]; j >= 0; j = c.waiters[j].next {
			c.waiters[j].req.State(s)
			s.U64(&c.waiters[j].arrived)
		}
	}

	for i := range snapshot.Slice(s, "cache: respQ", &c.respQ, snapshot.MaxLen, mem.ResponseBytes) {
		c.respQ[i].State(s)
	}

	s.U64(&c.cycle)
	c.stats.state(s)
	if s.Loading() {
		c.headMSHR, c.headLow, c.wbLow = false, mem.Watch{}, mem.Watch{}
	}
}

// state walks the replacement-policy metadata. The kind and geometry are
// construction-time (NewArray); the two slabs carry all mutable columns.
func (p *Policy) state(s *snapshot.Coder) {
	if !s.Kind("cache: replacement policy", uint8(p.kind)) {
		return
	}
	s.U64s(p.words)
	s.U64(&p.clock)
	s.U8s(p.bytesSlab)
	s.I8s(p.mjTable[:])
	s.U8(&p.probe)
}

func (st *Stats) state(s *snapshot.Coder) {
	s.U64(&st.DemandAccesses)
	s.U64(&st.DemandHits)
	s.U64(&st.DemandMisses)
	s.U64(&st.StoreAccesses)
	s.U64(&st.PFIssued)
	s.U64(&st.PFDropped)
	s.U64(&st.PFFills)
	s.U64(&st.PFUseful)
	s.U64(&st.PFLate)
	s.U64(&st.PFPolluting)
	s.U64(&st.Writebacks)
	s.U64(&st.Evictions)
	s.U64(&st.MSHRFullEvents)
	s.U64(&st.OrphanFills)
	s.U64(&st.DemandMissLatency.Sum)
	s.U64(&st.DemandMissLatency.Count)
	s.U64(&st.DemandMissLatency.Max)
}
