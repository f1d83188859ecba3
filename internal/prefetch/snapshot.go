package prefetch

import (
	"fmt"

	"clip/internal/snapshot"
)

// Prefetcher checkpointing. Each engine serializes its training tables and
// aggressiveness level (throttlers mutate it); per-Train scratch slices are
// consumed within one call and carry no state. State writes a kind byte so a
// snapshot taken under one -prefetcher flag cannot silently restore into
// another.

const (
	pfKindNone uint8 = iota
	pfKindStride
	pfKindStream
	pfKindBingo
	pfKindSPPPPF
	pfKindIPCP
	pfKindBerti
)

// stater is the state walk every stateful engine implements.
type stater interface {
	State(s *snapshot.Coder)
}

// kindOf returns p's snapshot kind byte and its state walk (nil for the
// stateless None); ok is false for a Prefetcher not built by New.
func kindOf(p Prefetcher) (kind uint8, c stater, ok bool) {
	switch pf := p.(type) {
	case None:
		return pfKindNone, nil, true
	case *Stride:
		return pfKindStride, pf, true
	case *Stream:
		return pfKindStream, pf, true
	case *Bingo:
		return pfKindBingo, pf, true
	case *SPPPPF:
		return pfKindSPPPPF, pf, true
	case *IPCP:
		return pfKindIPCP, pf, true
	case *Berti:
		return pfKindBerti, pf, true
	}
	return 0, nil, false
}

// State walks any prefetcher built by New, behind its kind byte.
func State(s *snapshot.Coder, p Prefetcher) {
	kind, c, ok := kindOf(p)
	if !ok {
		s.Fail(fmt.Errorf("prefetch: cannot snapshot prefetcher type %T", p))
		return
	}
	if s.Kind("prefetch: prefetcher", kind) && c != nil {
		c.State(s)
	}
}

// state walks the aggressiveness level. Loading refuses a level
// SetAggressiveness cannot set: its degree would outrun the engine's output
// array, and a large one would make Train emit candidates without bound.
func (a *aggr) state(s *snapshot.Coder) {
	s.Int(&a.level)
	if s.Loading() && (a.level < 0 || a.level > maxAggressiveness) {
		s.Corrupt("prefetch: aggressiveness %d out of range", a.level)
	}
}

// State walks the IP-stride prefetcher.
func (p *Stride) State(s *snapshot.Coder) {
	p.aggr.state(s)
	p.table.State(s, func(e *strideEntry) {
		s.U64(&e.lastLine)
		s.I64(&e.stride)
		s.I8(&e.conf)
	})
}

// State walks the streamer.
func (p *Stream) State(s *snapshot.Coder) {
	p.aggr.state(s)
	for i := range p.streams {
		st := &p.streams[i]
		s.Bool(&st.valid)
		s.U64(&st.page)
		s.U64(&st.last)
		s.I64(&st.dir)
		s.I8(&st.conf)
	}
	s.Int(&p.next)
	if s.Loading() && (p.next < 0 || p.next >= len(p.streams)) {
		s.Corrupt("prefetch: stream cursor %d out of range", p.next)
	}
}

// State walks Bingo's region tracker and both history tables.
func (b *Bingo) State(s *snapshot.Coder) {
	b.aggr.state(s)
	b.active.State(s, func(e *bingoRegion) {
		s.U64(&e.triggerIP)
		s.U64((*uint64)(&e.triggerAddr))
		s.U32(&e.bitmap)
		s.Int(&e.touches)
	})
	b.long.State(s, s.U32)
	b.short.State(s, s.U32)
}

// State walks SPP-PPF: per-page signatures, the pattern table and the
// perceptron filter weights.
func (p *SPPPPF) State(s *snapshot.Coder) {
	p.aggr.state(s)
	p.pages.State(s, func(e *sppPage) {
		s.U64(&e.lastLine)
		s.U16(&e.sig)
	})
	for i := range p.table {
		e := &p.table[i]
		for j := range e.deltas {
			s.I64(&e.deltas[j])
		}
		s.U8s(e.counts[:])
	}
	for t := range p.filter.weights {
		s.I8s(p.filter.weights[t][:])
	}
}

// State walks IPCP's three engines.
func (p *IPCP) State(s *snapshot.Coder) {
	p.aggr.state(s)
	p.ip.State(s, func(e *ipcpEntry) {
		s.U64(&e.lastLine)
		s.I64(&e.stride)
		s.I8(&e.conf)
		s.U16(&e.sig)
	})
	for i := range p.cplx {
		s.I64(&p.cplx[i].delta)
		s.I8(&p.cplx[i].conf)
	}
	p.region.State(s, func(e *gsRegion) {
		s.U64(&e.bitmap)
		s.Int(&e.lastOff)
		s.Int(&e.forward)
		s.Int(&e.backward)
		s.Int(&e.touched)
	})
}

// State walks Berti: the fresh-row cursor, the IP->row table, the blocks of
// the rows handed out so far and the latency estimate. The image holds only
// the live rows, so it does not depend on how far the slab has grown;
// loading grows the receiver's slab to fit them and zeroes the rest.
func (b *Berti) State(s *snapshot.Coder) {
	b.aggr.state(s)
	s.I32(&b.nextRow)
	if s.Loading() {
		if b.nextRow < 0 || b.nextRow > bertiTableSize {
			s.Corrupt("prefetch: berti row cursor %d out of range", b.nextRow)
			return
		}
		b.fit(int(b.nextRow))
	}
	b.rows.State(s, func(row *int32) {
		// A live row id is below the cursor; a free slot holds a stale id
		// or zero.
		if s.I32(row); s.Loading() && (*row < 0 || *row >= max(b.nextRow, 1)) {
			s.Corrupt("prefetch: berti row id %d, %d rows handed out", *row, b.nextRow)
		}
	})
	live := int(b.nextRow) * bertiRowWords
	s.U64s(b.slab[:live])
	if s.Loading() {
		clear(b.slab[live:])
	}
	s.U64(&b.latencyEst)
}
