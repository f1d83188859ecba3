package mem

import "clip/internal/snapshot"

// RequestBytes and ResponseBytes are the encoded sizes of a Request and a
// Response: what a list of them needs of the stream per element.
const (
	RequestBytes  = 3*8 + 2*2 + 4
	ResponseBytes = RequestBytes + 1 + 8 + 2
)

// State walks the PRNG (one word: SplitMix64 is its state).
func (p *PRNG) State(s *snapshot.Coder) {
	s.U64(&p.state)
}

// State walks a Ring's logical content: length, then elements front-to-back
// via elem, each at least elemSize encoded bytes. Buffer geometry (head
// position, capacity) is not observable through the Ring API, so it is not
// captured: the queue round-trips, not the buffer. Loading reuses the
// existing buffer, growing it if the saved queue is deeper.
func (r *Ring[T]) State(s *snapshot.Coder, elemSize int, elem func(*T)) {
	n := s.Len("mem: ring", r.n, snapshot.MaxLen, elemSize)
	if s.Loading() {
		for r.n > 0 {
			r.PopFront()
		}
		r.head = 0
		r.Grow(n)
	}
	var zero T
	for i := 0; i < n && s.Err() == nil; i++ {
		if s.Loading() {
			r.Push(zero)
		}
		elem(r.At(i))
	}
}

// State walks one Request: every field but TriggerIP, which nothing reads.
func (q *Request) State(s *snapshot.Coder) {
	s.U64((*uint64)(&q.Addr))
	s.U64(&q.IP)
	s.U64(&q.IssueCycle)
	s.I16(&q.Core)
	s.I16(&q.ROBIndex)
	s.U8((*uint8)(&q.Type))
	s.Bool(&q.Critical)
	s.U8((*uint8)(&q.FillLevel))
	s.Bool(&q.Owned)
}

// State walks one Response.
func (r *Response) State(s *snapshot.Coder) {
	r.Req.State(s)
	s.U8((*uint8)(&r.ServedBy))
	s.U64(&r.DoneCycle)
	s.Bool(&r.WasPrefetch)
	s.Bool(&r.LatePF)
}
