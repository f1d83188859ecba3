package noc

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// Mesh checkpointing. Packet ids index the slab and the slab only recycles
// through the free list, so ids in VC rings, link occupancy and the pending
// ring stay valid across a verbatim slab restore. The one thing a snapshot
// cannot carry is a closure: Save fails if any live packet still uses the
// closure-based Send path (tests and cold paths only — the simulator sends
// exclusively payload packets dispatched through OnDeliver, which the
// restoring process re-registers at construction). A busy link is saved as
// the flit-cycles its packet still needs after the current one; the deadline
// wheel and the grant bitmap are rebuilt from the links.

// Save serializes the mesh.
func (m *Mesh) Save(w *snapshot.Writer) {
	m.Stats() // charge LinkBusy through the current cycle
	w.Int(len(m.pkts))
	for i := range m.pkts {
		p := &m.pkts[i]
		if p.deliver != nil {
			w.Fail(fmt.Errorf("noc: packet %d uses a closure deliver callback; only payload packets are snapshotable", i))
			return
		}
		w.I32(p.at)
		w.I32(p.dst)
		w.I32(p.flits)
		w.Bool(p.high)
		w.Bool(p.payload)
		w.U8(p.kind)
		w.U64(p.sent)
		mem.SaveResponse(w, &p.resp)
	}
	w.Int(len(m.free))
	for _, id := range m.free {
		w.I32(id)
	}

	for i := range m.links {
		l := &m.links[i]
		for v := range l.vcs {
			mem.SaveRing(w, &l.vcs[v], func(id *int32) { w.I32(*id) })
		}
		w.Int(l.rrHi)
		w.Int(l.rrLo)
		w.U64(l.vcMask)
		w.I32(l.cur)
		var busyLeft int32
		if l.cur >= 0 {
			busyLeft = int32(l.doneAt - m.cycle)
		}
		w.I32(busyLeft)
		w.I32(l.hiN)
		w.I32(l.loN)
		w.U8(l.arb)
	}
	w.U64s(m.active)

	mem.SaveRing(w, &m.pending, func(h *pendingHop) {
		w.I32(h.id)
		w.U64(h.ready)
	})

	w.U64(m.cycle)
	w.U64(m.stats.Packets)
	w.U64(m.stats.Flits)
	m.stats.HighLatency.Save(w)
	m.stats.LowLatency.Save(w)
	w.U64(m.stats.LinkBusy)
	w.U64(m.stats.Cycles)
	w.Int(m.live)
	w.Int(m.linkActive)
}

// Load restores a snapshot taken from an identically-configured mesh.
func (m *Mesh) Load(r *snapshot.Reader) {
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n < 0 || n > 1<<24 {
		r.Fail(fmt.Errorf("noc: snapshot packet slab %d entries: %w", n, snapshot.ErrCorrupt))
		return
	}
	m.pkts = m.pkts[:0]
	for i := 0; i < n; i++ {
		var p packet
		p.at = r.I32()
		p.dst = r.I32()
		p.flits = r.I32()
		p.high = r.Bool()
		p.payload = r.Bool()
		p.kind = r.U8()
		p.sent = r.U64()
		mem.LoadResponse(r, &p.resp)
		if r.Err() != nil {
			return
		}
		m.pkts = append(m.pkts, p)
	}
	fn := r.Int()
	if r.Err() != nil {
		return
	}
	if fn < 0 || fn > n {
		r.Fail(fmt.Errorf("noc: snapshot free list %d entries for %d-entry slab: %w", fn, n, snapshot.ErrCorrupt))
		return
	}
	m.free = m.free[:0]
	for i := 0; i < fn; i++ {
		id := r.I32()
		if r.Err() == nil && (id < 0 || int(id) >= n) {
			r.Fail(fmt.Errorf("noc: free-list id %d out of slab [0,%d): %w", id, n, snapshot.ErrCorrupt))
			return
		}
		m.free = append(m.free, id)
	}

	badID := func(id int32) bool { return id < 0 || int(id) >= n }
	for i := range m.links {
		l := &m.links[i]
		for v := range l.vcs {
			mem.LoadRing(r, &l.vcs[v], func(id *int32) {
				*id = r.I32()
				if r.Err() == nil && badID(*id) {
					r.Fail(fmt.Errorf("noc: VC packet id out of slab: %w", snapshot.ErrCorrupt))
				}
			})
		}
		l.rrHi = r.Int()
		l.rrLo = r.Int()
		l.vcMask = r.U64()
		l.cur = r.I32()
		busyLeft := r.I32()
		l.hiN = r.I32()
		l.loN = r.I32()
		l.arb = r.U8()
		if r.Err() != nil {
			return
		}
		if l.cur != -1 && (badID(l.cur) || busyLeft <= 0) {
			r.Fail(fmt.Errorf("noc: link %d current packet id %d with %d flits left: %w", i, l.cur, busyLeft, snapshot.ErrCorrupt))
			return
		}
		l.doneAt = uint64(busyLeft) // relative to the clock, which follows
	}
	r.U64s(m.active)

	mem.LoadRing(r, &m.pending, func(h *pendingHop) {
		h.id = r.I32()
		h.ready = r.U64()
		if r.Err() == nil && badID(h.id) {
			r.Fail(fmt.Errorf("noc: pending packet id out of slab: %w", snapshot.ErrCorrupt))
		}
	})

	m.cycle = r.U64()
	m.stats.Packets = r.U64()
	m.stats.Flits = r.U64()
	m.stats.HighLatency.Load(r)
	m.stats.LowLatency.Load(r)
	m.stats.LinkBusy = r.U64()
	m.stats.Cycles = r.U64()
	m.live = r.Int()
	m.linkActive = r.Int()
	if r.Err() == nil && (m.live < 0 || m.live > n || m.linkActive < 0 || m.linkActive > m.live) {
		r.Fail(fmt.Errorf("noc: snapshot live/linkActive counts out of range: %w", snapshot.ErrCorrupt))
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
