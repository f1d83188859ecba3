package noc

import (
	"fmt"
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// TestPropertyExactlyOnceDelivery floods the mesh with random packets and
// asserts every packet is delivered exactly once, regardless of priority
// class, size, or contention.
func TestPropertyExactlyOnceDelivery(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := mem.NewPRNG(seed)
		m := MustNew(DefaultConfig(16))
		const n = 500
		delivered := make([]int, n)
		m.OnDeliver(func(_ uint8, _ int, r *mem.Response, _ uint64) { delivered[r.Req.IP]++ })
		var cy uint64
		for i := 0; i < n; i++ {
			src, dst := rng.Intn(16), rng.Intn(16)
			flits := 1
			if rng.Bool(0.5) {
				flits = FlitsPerData
			}
			send(m, src, dst, flits, rng.Bool(0.5), uint64(i))
			// Interleave some ticks so injection isn't one burst.
			if rng.Bool(0.3) {
				m.Tick(cy)
				cy++
			}
		}
		for i := 0; i < 100000; i++ {
			m.Tick(cy)
			cy++
			done := true
			for _, d := range delivered {
				if d == 0 {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
		for i, d := range delivered {
			if d != 1 {
				t.Fatalf("seed %d: packet %d delivered %d times", seed, i, d)
			}
		}
		if m.Stats().Packets != n {
			t.Fatalf("seed %d: packet count %d != %d", seed, m.Stats().Packets, n)
		}
	}
}

// TestPropertyLowClassNotStarved saturates a link with high-class traffic
// and checks a low-class packet still gets through (the weighted arbiter's
// forward-progress guarantee).
func TestPropertyLowClassNotStarved(t *testing.T) {
	m := MustNew(DefaultConfig(4))
	lowDone := false
	m.OnDeliver(func(_ uint8, _ int, r *mem.Response, _ uint64) { lowDone = lowDone || r.Req.IP == 1 })
	send(m, 0, 1, FlitsPerData, false, 1)
	// Continuous high-class pressure on the same link.
	var cy uint64
	for i := 0; i < 3000; i++ {
		send(m, 0, 1, FlitsPerAddr, true, 0)
		m.Tick(cy)
		cy++
		if lowDone {
			return
		}
	}
	t.Fatal("low-class packet starved under continuous high-class traffic")
}

// refMesh is the reference arbiter: the mesh as a per-cycle walk over every
// link, with plain slices for queues and a flit countdown per busy link. It
// is what Mesh.Tick did before links had deadlines, kept here as the naive
// oracle the deadline mesh must match event for event.
type refMesh struct {
	m       *Mesh // geometry and routing only: nextLink, hops, cfg
	links   []refLink
	pending []refHop
	cycle   uint64
	stats   Stats
	deliver func(seq uint64, cycle uint64)
}

type refPacket struct {
	seq     uint64
	at, dst int32
	flits   int32
	high    bool
	sent    uint64
}

type refLink struct {
	vcs        [][]*refPacket
	rrHi, rrLo int
	cur        *refPacket
	busyLeft   int32
	arb        uint8
}

type refHop struct {
	p     *refPacket
	ready uint64
}

func newRefMesh(m *Mesh, deliver func(seq, cycle uint64)) *refMesh {
	r := &refMesh{m: m, links: make([]refLink, len(m.links)), deliver: deliver}
	for i := range r.links {
		r.links[i].vcs = make([][]*refPacket, len(m.links[i].vcs))
	}
	return r
}

func (r *refMesh) send(seq uint64, src, dst, flits int, high bool) {
	p := &refPacket{seq: seq, at: int32(src), dst: int32(dst), flits: int32(max(flits, 1)), high: high, sent: r.cycle}
	r.stats.Packets++
	r.stats.Flits += uint64(p.flits)
	if p.at == p.dst {
		r.pending = append(r.pending, refHop{p, r.cycle + uint64(r.m.cfg.RouterStage)})
		return
	}
	r.enqueue(p)
}

func (r *refMesh) enqueue(p *refPacket) {
	id, _ := r.m.nextLink(p.at, p.dst)
	l := &r.links[id]
	hiVCs := r.m.links[id].hiVCs
	v := r.m.hops(p.at, p.dst) % hiVCs
	if !p.high && r.m.cfg.CriticalPriority {
		v = hiVCs + r.m.hops(p.at, p.dst)%(len(l.vcs)-hiVCs)
	}
	l.vcs[v] = append(l.vcs[v], p)
}

// pop takes the next packet round-robin from VCs [lo, hi), starting at *rr.
func (l *refLink) pop(lo, hi int, rr *int) *refPacket {
	for k := 0; k < hi-lo; k++ {
		v := lo + (*rr+k)%(hi-lo)
		if len(l.vcs[v]) > 0 {
			p := l.vcs[v][0]
			l.vcs[v] = l.vcs[v][1:]
			*rr = (v - lo + 1) % (hi - lo)
			return p
		}
	}
	return nil
}

func (r *refMesh) tick(cycle uint64) {
	r.cycle = cycle
	r.stats.Cycles++
	for len(r.pending) > 0 && r.pending[0].ready <= cycle {
		p := r.pending[0].p
		r.pending = r.pending[1:]
		if p.at != p.dst {
			r.enqueue(p)
			continue
		}
		if p.high {
			r.stats.HighLatency.Add(cycle - p.sent)
		} else {
			r.stats.LowLatency.Add(cycle - p.sent)
		}
		r.deliver(p.seq, cycle)
	}
	for i := range r.links {
		l := &r.links[i]
		hiVCs := r.m.links[i].hiVCs
		if l.cur == nil {
			hi, lo := 0, 0
			for v := range l.vcs {
				if v < hiVCs {
					hi += len(l.vcs[v])
				} else {
					lo += len(l.vcs[v])
				}
			}
			if hi+lo == 0 {
				continue
			}
			l.arb++
			if l.arb&3 == 0 && lo > 0 {
				l.cur = l.pop(hiVCs, len(l.vcs), &l.rrLo)
			} else if hi > 0 {
				l.cur = l.pop(0, hiVCs, &l.rrHi)
			} else {
				l.cur = l.pop(hiVCs, len(l.vcs), &l.rrLo)
			}
			l.busyLeft = l.cur.flits
		}
		r.stats.LinkBusy++
		l.busyLeft--
		if l.busyLeft == 0 {
			p := l.cur
			l.cur = nil
			_, p.at = r.m.nextLink(p.at, p.dst)
			r.pending = append(r.pending, refHop{p, cycle + uint64(r.m.cfg.RouterStage)})
		}
	}
}

// nextEvent is the earliest cycle >= now at which a tick does more than count
// down flits; exact reports whether the deadline mesh can know it exactly (a
// packet longer than its wheel is re-filed, which it reports as an event).
func (r *refMesh) nextEvent(now uint64) (next uint64, exact bool) {
	next, exact = mem.NoEvent, true
	if len(r.pending) > 0 {
		next = max(r.pending[0].ready, now)
	}
	for i := range r.links {
		l := &r.links[i]
		if l.cur != nil {
			next = min(next, now+uint64(l.busyLeft)-1)
			exact = exact && l.cur.flits <= wheelSize
			continue
		}
		for v := range l.vcs {
			if len(l.vcs[v]) > 0 {
				next = now
			}
		}
	}
	return next, exact
}

// sameAs fails unless the deadline mesh m is in the state of the reference.
func (r *refMesh) sameAs(t *testing.T, m *Mesh, when string) {
	t.Helper()
	seqOf := func(id int32) uint64 { return m.pkts[id].resp.Req.IP }
	if got := *m.Stats(); got != r.stats {
		t.Fatalf("%s: stats %+v, reference %+v", when, got, r.stats)
	}
	if m.pending.Len() != len(r.pending) {
		t.Fatalf("%s: %d packets in router stages, reference %d", when, m.pending.Len(), len(r.pending))
	}
	for k, h := range r.pending {
		if g := m.pending.At(k); seqOf(g.id) != h.p.seq || g.ready != h.ready {
			t.Fatalf("%s: router-stage entry %d is packet %d ready %d, reference %d ready %d",
				when, k, seqOf(g.id), g.ready, h.p.seq, h.ready)
		}
	}
	for i := range r.links {
		l, g := &r.links[i], &m.links[i]
		if l.arb != g.arb || l.rrHi != g.rrHi || l.rrLo != g.rrLo {
			t.Fatalf("%s: link %d arbiter state arb=%d rr=%d/%d, reference arb=%d rr=%d/%d",
				when, i, g.arb, g.rrHi, g.rrLo, l.arb, l.rrHi, l.rrLo)
		}
		switch {
		case (l.cur == nil) != (g.cur < 0):
			t.Fatalf("%s: link %d busy=%t, reference busy=%t", when, i, g.cur >= 0, l.cur != nil)
		case l.cur != nil && (seqOf(g.cur) != l.cur.seq || g.doneAt-m.cycle != uint64(l.busyLeft)):
			t.Fatalf("%s: link %d carries packet %d with %d flits left, reference packet %d with %d",
				when, i, seqOf(g.cur), g.doneAt-m.cycle, l.cur.seq, l.busyLeft)
		}
		for v := range l.vcs {
			if g.vcs[v].Len() != len(l.vcs[v]) {
				t.Fatalf("%s: link %d VC %d holds %d packets, reference %d", when, i, v, g.vcs[v].Len(), len(l.vcs[v]))
			}
			for k, p := range l.vcs[v] {
				if seqOf(*g.vcs[v].At(k)) != p.seq {
					t.Fatalf("%s: link %d VC %d slot %d holds packet %d, reference %d", when, i, v, k, seqOf(*g.vcs[v].At(k)), p.seq)
				}
			}
		}
	}
}

// TestPropertyReferenceArbiter runs the deadline mesh in lockstep with the
// per-cycle reference over seeded random traffic — both classes, address,
// data and odd-sized packets (one longer than the deadline wheel), zero-hop
// sends, sends between ticks — and requires the same deliveries on the same
// cycles in the same order and the same arbiter, queue and counter state
// after every cycle, through a Stats reset with packets on the wire, skipped
// windows (the reference ticks through them) and a Save/Load into a fresh
// mesh. NextEvent must never be later than the reference's next event, and
// equal to it whenever every packet fits the wheel.
func TestPropertyReferenceArbiter(t *testing.T) {
	type delivery struct{ seq, cycle uint64 }
	sizes := []int{FlitsPerAddr, FlitsPerData, 3, 5, 13, wheelSize + 24}
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultConfig(16)
		cfg.CriticalPriority = seed%2 == 1
		if seed%4 >= 2 {
			cfg.RouterStage = 0
		}
		var got, want []delivery
		newMesh := func() *Mesh {
			m := MustNew(cfg)
			m.OnDeliver(func(_ uint8, _ int, r *mem.Response, cy uint64) {
				got = append(got, delivery{r.Req.IP, cy})
			})
			return m
		}
		m := newMesh()
		ref := newRefMesh(m, func(seq, cy uint64) { want = append(want, delivery{seq, cy}) })
		rng := mem.NewPRNG(seed)
		var seq, skipped, inexact uint64
		var reset, restored bool
		for cy := uint64(0); cy < 6000; cy++ {
			when := fmt.Sprintf("seed %d cycle %d", seed, cy)
			// Bursts and lulls, so queues build up and the mesh also drains.
			for k := rng.Intn(4); k > 0 && cy/300%3 != 2; k-- {
				if !rng.Bool(0.4) {
					continue
				}
				src, dst := rng.Intn(16), rng.Intn(16)
				if rng.Bool(0.1) {
					dst = src
				}
				flits, high := sizes[rng.Intn(len(sizes))], rng.Bool(0.6)
				seq++
				resp := mem.Response{Req: mem.Request{IP: seq}}
				m.SendPayload(src, dst, flits, high, 0, &resp)
				ref.send(seq, src, dst, flits, high)
			}
			next, exact := ref.nextEvent(cy)
			if e := m.NextEvent(cy); e > next || (exact && e != next) {
				t.Fatalf("%s: NextEvent %d, reference %d (exact=%t)", when, e, next, exact)
			}
			if !exact {
				inexact++
			}
			if e := m.NextEvent(cy); e > cy && e != mem.NoEvent && rng.Bool(0.5) {
				// Jump part of the idle window; the reference walks it.
				n := 1 + uint64(rng.Intn(int(e-cy)))
				m.SkipCycles(cy, n)
				for ; n > 1; n-- {
					ref.tick(cy)
					cy++
					skipped++
				}
				ref.tick(cy)
				skipped++
			} else {
				m.Tick(cy)
				ref.tick(cy)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d deliveries, reference %d", when, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%s: delivery %d is %+v, reference %+v", when, k, got[k], want[k])
				}
			}
			got, want = got[:0], want[:0]
			ref.sameAs(t, m, when)
			switch {
			case !reset && cy >= 1000 && m.linkActive > 0:
				reset = true
				*m.Stats() = Stats{}
				ref.stats = Stats{}
			case !restored && cy >= 2500 && m.linkActive > 0:
				restored = true
				w := snapshot.NewSaver(0)
				m.State(w)
				image, err := w.Bytes()
				if err != nil {
					t.Fatal(err)
				}
				m = newMesh()
				ref.m = m
				r, err := snapshot.NewLoader(image)
				if err != nil {
					t.Fatal(err)
				}
				m.State(r)
				if err := r.Done(); err != nil {
					t.Fatal(err)
				}
				ref.sameAs(t, m, when+" after Save/Load")
			}
		}
		work := m.LinkWork()
		if !reset || !restored || ref.stats.LowLatency.Count == 0 || skipped == 0 || inexact == 0 {
			t.Fatalf("seed %d: traffic missed a path (stats %+v, %d cycles skipped, %d with a packet beyond the wheel)",
				seed, ref.stats, skipped, inexact)
		}
		if work.Visits > work.Grants+work.Completions+inexact {
			t.Fatalf("seed %d: %d link visits for %d grants and %d completions", seed, work.Visits, work.Grants, work.Completions)
		}
	}
}
