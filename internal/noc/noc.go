// Package noc models the on-chip interconnect of the baseline (Table 3): an
// 8x8 mesh with XY routing, two-stage routers, one-flit address packets and
// eight-flit data packets, and two priority classes standing in for virtual
// channels. With CLIP, demand packets and critical-accurate prefetch packets
// travel in the high class; plain prefetch packets in the low class — the
// paper's "load criticality conscious NOC".
//
// The transport is modelled at packet granularity with store-and-forward
// links (a flit-accurate wormhole pipeline would shave a few cycles per hop
// but exhibits the same contention behaviour, which is what matters here:
// prefetch bursts queue behind each other and delay demand packets).
//
// Storage is structure-of-arrays: packets live in a flat slab addressed by
// int32 ids (free-listed, so the steady state never allocates), routes are
// computed incrementally from the current node instead of materialized as a
// path slice, and links act on deadlines: a grant computes the cycle the
// packet's last flit crosses and files the link under it, so Tick visits
// only the links that complete or can grant this cycle. Every packet carries
// a concrete mem.Response payload, delivered through one registered handler
// (OnDeliver).
package noc

import (
	"fmt"
	"math/bits"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/stats"
	"clip/internal/table"
)

// Config sizes the mesh.
type Config struct {
	Width, Height int
	RouterStage   int // per-hop router pipeline latency in cycles
	// VCs is the number of virtual channels per port (Table 3: six). The
	// high class (demands, critical prefetches) owns VCs-2 of them; the low
	// class shares the remaining two, so prefetch bursts cannot occupy the
	// whole buffer pool while the weighted arbiter still guarantees them
	// forward progress.
	VCs int
	// CriticalPriority arbitrates high-class packets ahead of low-class.
	CriticalPriority bool
}

// DefaultConfig is the paper's 8x8 mesh with six VCs per port, scaled down
// when nodes < 64.
func DefaultConfig(nodes int) Config {
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	return Config{Width: w, Height: h, RouterStage: 2, VCs: 6, CriticalPriority: true}
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 || c.RouterStage < 0 {
		return fmt.Errorf("noc: invalid config %+v", c)
	}
	if c.VCs < 0 {
		return fmt.Errorf("noc: negative VC count in %+v", c)
	}
	return nil
}

// Stats holds mesh counters.
type Stats struct {
	Packets     uint64
	Flits       uint64
	HighLatency stats.LatencyAcc
	LowLatency  stats.LatencyAcc
	LinkBusy    uint64
	Cycles      uint64
}

// FlitsPerData is the data packet size (Table 3).
const FlitsPerData = 8

// FlitsPerAddr is the address packet size (Table 3).
const FlitsPerAddr = 1

// DeliverFunc receives payload packets at their destination. kind and resp
// are the values given to SendPayload; resp points into the packet slab and
// must not be retained past the call.
type DeliverFunc func(kind uint8, dst int, resp *mem.Response, cycle uint64)

// packet is one slab entry. at is the node the packet currently occupies (or
// is entering the link out of); routing to dst is recomputed per hop, so the
// remaining path never needs materializing.
type packet struct {
	at, dst int32
	flits   int32
	high    bool
	kind    uint8
	sent    uint64
	resp    mem.Response
}

type link struct {
	// vcs[0..hiVCs) carry the high class round-robin; the rest the low
	// class. With CriticalPriority off, every packet uses vcs[0].
	vcs   []mem.Ring[int32]
	hiVCs int
	rrHi  int // round-robin cursor over high VCs
	rrLo  int
	// vcMask has bit v set while vcs[v] is non-empty, so the round-robin
	// pop is one NextRR instead of a ring-length scan.
	vcMask uint64
	cur    int32 // packet id occupying the link, -1 when idle
	// doneAt is the cycle cur's last flit crosses (the grant cycle counts as
	// its first flit-cycle); busyFrom is the first cycle of cur's occupancy
	// not yet added to Stats.LinkBusy. Both are meaningless while idle.
	doneAt, busyFrom uint64
	// hiN/loN mirror the summed VC occupancy per class, maintained on every
	// push and pop, so the per-cycle link walk is O(1) per link instead of
	// O(VCs) (verified against the rings by the clipdebug conservation
	// invariant).
	hiN, loN int32
	// arb is the arbitration counter for weighted low-class service. It
	// advances only on grant decisions (cycles with queued packets), so an
	// idle link's state is exactly invariant under tick skipping.
	arb uint8
}

func (l *link) hiLen() int {
	n := 0
	for v := 0; v < l.hiVCs; v++ {
		n += l.vcs[v].Len()
	}
	return n
}

func (l *link) loLen() int {
	n := 0
	for v := l.hiVCs; v < len(l.vcs); v++ {
		n += l.vcs[v].Len()
	}
	return n
}

func (l *link) pop(v int) int32 {
	id := l.vcs[v].PopFront()
	if l.vcs[v].Len() == 0 {
		l.vcMask &^= 1 << uint(v)
	}
	return id
}

// popHi dequeues the next high-class packet round-robin across its VCs.
func (l *link) popHi() int32 {
	v := table.NextRR(l.vcMask&(1<<uint(l.hiVCs)-1), l.rrHi)
	if v < 0 {
		return -1
	}
	l.rrHi = (v + 1) % l.hiVCs
	l.hiN--
	return l.pop(v)
}

// popLo dequeues the next low-class packet round-robin across its VCs.
func (l *link) popLo() int32 {
	nLo := len(l.vcs) - l.hiVCs
	if nLo == 0 {
		return -1
	}
	v := table.NextRR(l.vcMask>>uint(l.hiVCs), l.rrLo)
	if v < 0 {
		return -1
	}
	l.rrLo = (v + 1) % nLo
	l.loN--
	return l.pop(l.hiVCs + v)
}

// Mesh is the interconnect.
type Mesh struct {
	cfg   Config
	links []link
	// active is the link occupancy bitmap: bit i set while link i holds a
	// packet (in a VC or on the wire).
	active []uint64
	// grant marks the idle links with a packet queued: each grants on the next
	// Tick. wheel files every busy link under the cycle its packet completes,
	// wheelSize buckets of one bitmap each, bucket c%wheelSize for cycle c; a
	// packet longer than the wheel is re-filed when its bucket comes up early.
	// A Tick walks (this cycle's bucket | grant) in ascending link id — the
	// order a walk over every occupied link visits them. Both are rebuilt
	// state: a snapshot carries each link's remaining flits instead.
	grant []uint64
	wheel []uint64
	// pkts is the packet slab; free lists retired ids. Packet ids are only
	// meaningful between inject and deliver, and the slab grows to the peak
	// in-flight population, so the steady state never allocates.
	pkts []packet
	free []int32
	// pending holds packets between links (router pipeline delay). Release
	// stamps are monotone in push order (each push uses the current cycle),
	// so a FIFO ring drains matured entries in exactly the order the old
	// slice compaction visited them.
	pending   mem.Ring[pendingHop]
	onDeliver DeliverFunc
	cycle     uint64
	stats     Stats

	// live counts injected-but-undelivered packets; linkActive counts the
	// subset parked in a VC or occupying a link. Both feed the quiescence
	// horizon (and the clipdebug conservation invariant): live == 0 means
	// the mesh has nothing to do, linkActive == 0 means no link has a
	// deadline and only router-stage releases remain.
	live       int
	linkActive int

	// work counts the link walk's own effort (LinkWork).
	work LinkWork
}

type pendingHop struct {
	id    int32
	ready uint64
}

// wheelSize is the number of link-deadline buckets: a power of two above
// FlitsPerData, so every packet the simulator sends is filed once.
const wheelSize = 16

// LinkWork counts what the link walk did: links visited, and the grants and
// completions those visits performed. It describes the simulator, not the
// modelled mesh: not part of Stats, of a snapshot or of any result.
type LinkWork struct {
	Visits, Grants, Completions uint64
}

// LinkWork returns the link walk's effort counters so far.
func (m *Mesh) LinkWork() LinkWork { return m.work }

// New constructs a mesh.
func New(cfg Config) (*Mesh, error) { return NewIn(nil, cfg) }

// NewIn is New with the mesh's slabs taken from a (mem.Make).
func NewIn(a *mem.Arena, cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.VCs < 2 {
		cfg.VCs = 2
	}
	hiVCs := cfg.VCs - 2
	if hiVCs < 1 {
		hiVCs = 1
	}
	// Four directed links per node is an upper bound; we address links as
	// node*4+dir with dir: 0=east 1=west 2=north 3=south.
	nLinks := cfg.Width * cfg.Height * 4
	// The packet slab, its free list and the router-stage ring are sized for
	// steady state up front (past that they still grow): a few packets per
	// node covers the in-flight population of every benchmark workload, so
	// the tick phase never reallocates them.
	slots := mem.RingSlots * cfg.Width * cfg.Height
	m := &Mesh{
		cfg:   cfg,
		pkts:  mem.Make[packet](a, slots)[:0],
		free:  mem.Make[int32](a, slots)[:0],
		links: mem.Make[link](a, nLinks),
	}
	m.pending.Adopt(mem.Make[pendingHop](a, 1<<bits.Len(uint(slots-1))))
	words := (nLinks + 63) / 64
	bitmaps := mem.Make[uint64](a, (2+wheelSize)*words)
	m.active, m.grant, m.wheel = bitmaps[:words:words], bitmaps[words:2*words:2*words], bitmaps[2*words:]
	// Every link's VC rings are carved from one array, and their first
	// mem.RingSlots slots from one slab: a VC's depth is not bounded by the
	// model, so a ring that outgrows its region grows into a buffer of its
	// own.
	vcs := mem.Make[mem.Ring[int32]](a, nLinks*cfg.VCs)
	ids := mem.Make[int32](a, nLinks*cfg.VCs*mem.RingSlots)
	for i := range vcs {
		vcs[i].Adopt(mem.Carve(&ids, mem.RingSlots))
	}
	for i := range m.links {
		m.links[i].vcs = mem.Carve(&vcs, cfg.VCs)
		m.links[i].hiVCs = hiVCs
		m.links[i].cur = -1
	}
	return m, nil
}

// MustNew panics on config errors.
func MustNew(cfg Config) *Mesh {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Stats returns live counters, first charging LinkBusy for the flit-cycles
// that packets still on a wire have used so far (a completion charges the
// rest), so the counters read — or zeroed — between ticks are what a
// per-cycle count would show.
func (m *Mesh) Stats() *Stats {
	for wi, w := range m.active {
		for ; w != 0; w &= w - 1 {
			if l := &m.links[wi<<6+bits.TrailingZeros64(w)]; l.cur >= 0 && l.busyFrom <= m.cycle {
				m.stats.LinkBusy += m.cycle + 1 - l.busyFrom
				l.busyFrom = m.cycle + 1
			}
		}
	}
	return &m.stats
}

// OnDeliver registers the payload-packet sink. Exactly one handler serves
// the whole mesh (the simulator's response/request router).
func (m *Mesh) OnDeliver(f DeliverFunc) { m.onDeliver = f }

const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

// hops returns the Manhattan distance from node a to node b — the length of
// the remaining XY route, which doubles as the VC-spreading key (the old
// implementation used len(path) of a materialized route; the two are equal
// at every hop by construction).
func (m *Mesh) hops(a, b int32) int {
	ax, ay := int(a)%m.cfg.Width, int(a)/m.cfg.Width
	bx, by := int(b)%m.cfg.Width, int(b)/m.cfg.Width
	return absInt(ax-bx) + absInt(ay-by)
}

// nextLink returns the link id a packet at node `at` takes toward dst under
// XY routing (X fully first, then Y), and the node on the link's far side.
func (m *Mesh) nextLink(at, dst int32) (linkID, nextNode int32) {
	w := int32(m.cfg.Width)
	ax, ay := at%w, at/w
	bx, by := dst%w, dst/w
	switch {
	case ax < bx:
		return at*4 + dirEast, at + 1
	case ax > bx:
		return at*4 + dirWest, at - 1
	case ay < by:
		return at*4 + dirSouth, at + w
	default:
		return at*4 + dirNorth, at - w
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// allocPkt takes a packet slot: the pool grows to its steady size, then
// recycles through the free list.
func (m *Mesh) allocPkt() int32 {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	m.pkts = append(m.pkts, packet{})
	return int32(len(m.pkts) - 1)
}

func (m *Mesh) freePkt(id int32) {
	m.free = append(m.free, id)
}

// inject performs the shared injection bookkeeping and routes the packet to
// its first link (or straight to the router stage for zero-hop sends).
func (m *Mesh) inject(id int32) {
	p := &m.pkts[id]
	m.live++
	m.stats.Packets++
	m.stats.Flits += uint64(p.flits)
	if p.at == p.dst {
		m.pushPending(id, m.cycle+uint64(m.cfg.RouterStage))
		return
	}
	m.enqueue(id)
}

// SendPayload injects a packet carrying resp, delivered through the
// OnDeliver handler with the given kind (during a later Tick; a zero-hop
// packet after the router stage). The payload is copied into the packet
// slab, so a send allocates nothing.
func (m *Mesh) SendPayload(src, dst, flits int, high bool, kind uint8, resp *mem.Response) {
	if invariant.Enabled {
		invariant.Check(m.onDeliver != nil,
			"noc: SendPayload(%d->%d) with no OnDeliver handler registered", src, dst)
	}
	if flits <= 0 {
		flits = 1
	}
	id := m.allocPkt()
	m.pkts[id] = packet{at: int32(src), dst: int32(dst), flits: int32(flits),
		high: high, kind: kind, sent: m.cycle, resp: *resp}
	m.inject(id)
}

func (m *Mesh) pushPending(id int32, ready uint64) {
	if invariant.Enabled && m.pending.Len() > 0 {
		invariant.Check(m.pending.At(m.pending.Len()-1).ready <= ready,
			"noc: router-stage release stamps not monotone (%d then %d)",
			m.pending.At(m.pending.Len()-1).ready, ready)
	}
	m.pending.Push(pendingHop{id: id, ready: ready})
}

func (m *Mesh) enqueue(id int32) {
	m.linkActive++
	p := &m.pkts[id]
	linkID, _ := m.nextLink(p.at, p.dst)
	l := &m.links[linkID]
	m.active[linkID>>6] |= 1 << uint(linkID&63)
	if l.cur < 0 {
		m.grant[linkID>>6] |= 1 << uint(linkID&63)
	}
	// Spread packets over their class's VCs by remaining-hop parity (a cheap
	// proxy for per-flow VC allocation).
	var v int
	if p.high || !m.cfg.CriticalPriority {
		v = m.hops(p.at, p.dst) % l.hiVCs
		l.hiN++
	} else {
		v = l.hiVCs + m.hops(p.at, p.dst)%(len(l.vcs)-l.hiVCs)
		l.loN++
	}
	l.vcs[v].Push(id)
	l.vcMask |= 1 << uint(v)
}

// Tick advances the mesh by one cycle: router-stage releases, then the links
// due this cycle. Cycles must be consecutive except across SkipCycles.
func (m *Mesh) Tick(cycle uint64) {
	m.cycle = cycle
	m.stats.Cycles++

	// Release packets whose router-stage delay elapsed. Stamps are monotone,
	// so matured entries form a prefix of the ring.
	for m.pending.Len() > 0 && m.pending.Front().ready <= cycle {
		m.advance(m.pending.PopFront().id)
	}

	if m.linkActive > 0 {
		due := m.bucket(cycle)
		for wi := range due {
			w := due[wi] | m.grant[wi]
			due[wi] = 0
			for ; w != 0; w &= w - 1 {
				m.visit(int32(wi<<6+bits.TrailingZeros64(w)), cycle)
			}
		}
	}

	if invariant.Enabled {
		m.checkConservation()
	}
}

// bucket returns the wheel bitmap of the links filed under cycle.
func (m *Mesh) bucket(cycle uint64) []uint64 {
	words := len(m.grant)
	return m.wheel[int(cycle%wheelSize)*words:][:words]
}

// file puts busy link i in the bucket of the cycle its packet completes, or
// of the last cycle the wheel reaches, where visit re-files it.
func (m *Mesh) file(i int32, cycle uint64) {
	at := min(m.links[i].doneAt, cycle+wheelSize-1)
	m.bucket(at)[i>>6] |= 1 << uint(i&63)
}

// visit serves link i at the cycle one of its deadlines fell due: an idle
// link grants its next packet, and a link whose packet's last flit crosses
// this cycle — which a one-flit packet's does on the grant cycle itself —
// hands it to the router stage.
func (m *Mesh) visit(i int32, cycle uint64) {
	l := &m.links[i]
	m.work.Visits++
	if l.cur < 0 {
		hi, lo := l.hiN, l.loN
		if invariant.Enabled {
			invariant.Check(hi+lo > 0, "noc: grant bit set for idle empty link %d", i)
		}
		// Weighted arbitration: the high class wins three of every four
		// grants; the fourth goes to the low class so prefetch packets (whose
		// upstream MSHRs wait on them) cannot starve outright — the
		// guaranteed-forward-progress property real VC arbiters have.
		l.arb++
		if l.arb&3 == 0 && lo > 0 {
			l.cur = l.popLo()
		} else if hi > 0 {
			l.cur = l.popHi()
		} else {
			l.cur = l.popLo()
		}
		m.grant[i>>6] &^= 1 << uint(i&63)
		m.work.Grants++
		l.busyFrom = cycle
		l.doneAt = cycle + uint64(m.pkts[l.cur].flits) - 1
	}
	if l.doneAt > cycle {
		m.file(i, cycle)
		return
	}
	m.work.Completions++
	m.stats.LinkBusy += cycle + 1 - l.busyFrom
	id := l.cur
	l.cur = -1
	m.linkActive--
	if l.hiN+l.loN == 0 {
		m.active[i>>6] &^= 1 << uint(i&63)
	} else {
		m.grant[i>>6] |= 1 << uint(i&63) // granted on the next cycle
	}
	p := &m.pkts[id]
	_, p.at = m.nextLink(p.at, p.dst)
	m.pushPending(id, cycle+uint64(m.cfg.RouterStage))
}

// NextEvent returns the earliest cycle >= now at which the mesh has work: the
// earliest router-stage release, grant or link completion, and mem.NoEvent
// when nothing is in flight.
func (m *Mesh) NextEvent(now uint64) uint64 {
	if m.live == 0 {
		return mem.NoEvent
	}
	next := mem.NoEvent
	if m.pending.Len() > 0 {
		// Monotone stamps: the ring head is the earliest release.
		next = max(m.pending.Front().ready, now)
	}
	if m.linkActive > 0 {
		for _, w := range m.grant {
			if w != 0 {
				return now
			}
		}
		// Every busy link sits in the bucket of a cycle in [now, now+wheelSize).
		for d := uint64(0); d < wheelSize && now+d < next; d++ {
			for _, w := range m.bucket(now + d) {
				if w != 0 {
					return now + d
				}
			}
		}
	}
	if invariant.Enabled {
		invariant.Check(next != mem.NoEvent,
			"noc: %d packets in flight but none queued, on a link, or pending", m.live)
	}
	return next
}

// SkipCycles advances the mesh clock over the n cycles [from, from+n) the
// simulation loop proved (via NextEvent) no packet can move in. The clock
// must track the global cycle because SendPayload stamps injection times
// from it.
func (m *Mesh) SkipCycles(from, n uint64) {
	if n == 0 {
		return
	}
	if invariant.Enabled {
		invariant.Check(m.NextEvent(from) >= from+n,
			"noc: skipping [%d,%d) past next event %d", from, from+n, m.NextEvent(from))
	}
	m.stats.Cycles += n
	m.cycle = from + n - 1
}

// advance moves a packet to its next link or delivers it.
func (m *Mesh) advance(id int32) {
	p := &m.pkts[id]
	if p.at != p.dst {
		m.enqueue(id)
		return
	}
	lat := m.cycle - p.sent
	if p.high {
		m.stats.HighLatency.Add(lat)
	} else {
		m.stats.LowLatency.Add(lat)
	}
	m.live--
	if invariant.Enabled {
		invariant.Check(m.live >= 0,
			"noc: delivered more packets than were injected")
	}
	m.onDeliver(p.kind, int(p.dst), &p.resp, m.cycle)
	m.freePkt(id)
}

// checkConservation asserts (clipdebug only) that every injected packet is
// still accounted for — parked in exactly one VC, in router-stage transit, or
// occupying a link — and that VC class segregation holds: with
// CriticalPriority, high VCs hold only high-class packets and low VCs only
// low-class ones, the buffer-partitioning property the paper's
// criticality-conscious NoC depends on. The SoA bookkeeping (occupancy and
// grant bitmaps, deadline wheel, per-VC masks, free list) is cross-checked
// against the rings and the links.
func (m *Mesh) checkConservation() {
	queued := m.pending.Len()
	onLinks := 0
	filed := 0
	for _, w := range m.wheel {
		filed += bits.OnesCount64(w)
	}
	for i := range m.links {
		l := &m.links[i]
		var mask uint64
		for v := range l.vcs {
			n := l.vcs[v].Len()
			queued += n
			onLinks += n
			if n > 0 {
				mask |= 1 << uint(v)
			}
			if m.cfg.CriticalPriority {
				for j := 0; j < n; j++ {
					p := &m.pkts[*l.vcs[v].At(j)]
					invariant.Check(p.high == (v < l.hiVCs),
						"noc: link %d VC %d holds a %v-class packet in the %v partition",
						i, v, cls(p.high), cls(v < l.hiVCs))
				}
			}
		}
		invariant.Check(mask == l.vcMask,
			"noc: link %d VC mask %#x diverged from ring occupancy %#x", i, l.vcMask, mask)
		if l.cur >= 0 {
			queued++
			onLinks++
			filed--
			invariant.Check(l.doneAt > m.cycle,
				"noc: link %d occupied at cycle %d by a packet that completed at %d", i, m.cycle, l.doneAt)
			at := min(l.doneAt, m.cycle+wheelSize-1)
			for at > m.cycle && m.bucket(at)[i>>6]&(1<<uint(i&63)) == 0 {
				at--
			}
			invariant.Check(at > m.cycle,
				"noc: busy link %d (done at %d) is in no bucket of the deadline wheel", i, l.doneAt)
		}
		invariant.Check((l.cur < 0 && l.hiN+l.loN > 0) == (m.grant[i>>6]&(1<<uint(i&63)) != 0),
			"noc: link %d grant bit disagrees with state (cur=%d queued=%d)", i, l.cur, l.hiN+l.loN)
		invariant.Check(int(l.hiN) == l.hiLen() && int(l.loN) == l.loLen(),
			"noc: link %d occupancy counters (hi=%d lo=%d) diverged from VCs (hi=%d lo=%d)",
			i, l.hiN, l.loN, l.hiLen(), l.loLen())
		busy := l.cur >= 0 || l.hiN+l.loN > 0
		invariant.Check(busy == (m.active[i>>6]&(1<<uint(i&63)) != 0),
			"noc: link %d occupancy bitmap bit %v disagrees with state (busy=%v)",
			i, !busy, busy)
	}
	invariant.Check(filed == 0,
		"noc: deadline wheel holds %d more links than are busy", filed)
	invariant.Check(queued == m.live,
		"noc: packet conservation violated: %d tracked in flight, %d found in mesh",
		m.live, queued)
	invariant.Check(onLinks == m.linkActive,
		"noc: link-occupancy count violated: %d tracked, %d found (skip gate would misfire)",
		m.linkActive, onLinks)
	invariant.Check(m.live+len(m.free) == len(m.pkts),
		"noc: packet slab leak: %d live + %d free != %d slab entries",
		m.live, len(m.free), len(m.pkts))
}

func cls(high bool) string {
	if high {
		return "high"
	}
	return "low"
}
