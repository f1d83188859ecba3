package noc

import (
	"clip/internal/mem"
	"clip/internal/snapshot"
)

// Mesh checkpointing. Packet ids index the slab and the slab only recycles
// through the free list, so ids in VC rings, link occupancy and the pending
// ring stay valid across a verbatim slab restore. A packet is its payload;
// the delivery handler is the owner's, which the restoring process
// re-registers at construction. A busy link is saved as
// the flit-cycles its packet still needs after the current one; the deadline
// wheel and the grant bitmap are rebuilt from the links.

// packetBytes is the encoded size of one slab packet.
const packetBytes = 3*4 + 2 + 8 + mem.ResponseBytes

// State walks the mesh; loading needs an identically-configured receiver.
func (m *Mesh) State(s *snapshot.Coder) {
	if !s.Loading() {
		m.Stats() // charge LinkBusy through the current cycle
	}
	nodes := int32(m.cfg.Width * m.cfg.Height)
	for i := range snapshot.Slice(s, "noc: packet slab", &m.pkts, snapshot.MaxLen, packetBytes) {
		p := &m.pkts[i]
		s.I32(&p.at)
		s.I32(&p.dst)
		s.I32(&p.flits)
		s.Bool(&p.high)
		s.U8(&p.kind)
		s.U64(&p.sent)
		p.resp.State(s)
		// Every slab entry has been sent once, so even a free one holds a
		// route: routing indexes the links by its nodes.
		if s.Loading() && (p.at < 0 || p.at >= nodes || p.dst < 0 || p.dst >= nodes || p.flits < 1) {
			s.Corrupt("noc: packet %d from node %d to %d with %d flits, %d nodes", i, p.at, p.dst, p.flits, nodes)
			return
		}
	}
	n := len(m.pkts)
	// pktID walks a packet id, which must name a slab entry.
	pktID := func(id *int32) {
		s.I32(id)
		if s.Loading() && (*id < 0 || int(*id) >= n) {
			s.Corrupt("noc: packet id %d out of slab [0,%d)", *id, n)
		}
	}
	for i := range snapshot.Slice(s, "noc: free list", &m.free, n, 4) {
		pktID(&m.free[i])
	}

	for i := range m.links {
		l := &m.links[i]
		for v := range l.vcs {
			l.vcs[v].State(s, 4, pktID)
		}
		s.Int(&l.rrHi)
		s.Int(&l.rrLo)
		s.U64(&l.vcMask)
		s.I32(&l.cur)
		var busyLeft int32
		if !s.Loading() && l.cur >= 0 {
			busyLeft = int32(l.doneAt - m.cycle)
		}
		s.I32(&busyLeft)
		s.I32(&l.hiN)
		s.I32(&l.loN)
		s.U8(&l.arb)
		if s.Loading() {
			if l.cur != -1 && (l.cur < 0 || int(l.cur) >= n || busyLeft <= 0) {
				s.Corrupt("noc: link %d current packet id %d with %d flits left", i, l.cur, busyLeft)
			}
			l.doneAt = uint64(busyLeft) // relative to the clock, which follows
		}
	}
	s.U64s(m.active)

	m.pending.State(s, 4+8, func(h *pendingHop) {
		pktID(&h.id)
		s.U64(&h.ready)
	})

	s.U64(&m.cycle)
	s.U64(&m.stats.Packets)
	s.U64(&m.stats.Flits)
	m.stats.HighLatency.State(s)
	m.stats.LowLatency.State(s)
	s.U64(&m.stats.LinkBusy)
	s.U64(&m.stats.Cycles)
	s.Int(&m.live)
	s.Int(&m.linkActive)
	if !s.Loading() || s.Err() != nil {
		return
	}
	if m.live < 0 || m.live > n || m.linkActive < 0 || m.linkActive > m.live {
		s.Corrupt("noc: snapshot live/linkActive counts out of range")
		return
	}
	clear(m.grant)
	clear(m.wheel)
	for i := range m.links {
		switch l := &m.links[i]; {
		case l.cur >= 0:
			l.doneAt += m.cycle
			l.busyFrom = m.cycle + 1
			m.file(int32(i), m.cycle)
		case l.hiN+l.loN > 0:
			m.grant[i>>6] |= 1 << uint(i&63)
		}
	}
}
