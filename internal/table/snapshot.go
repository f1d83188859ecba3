package table

import "clip/internal/snapshot"

// The table kernels serialize their *exact* cell layout, not their logical
// content. Slot assignment and probe-chain shape influence deterministic
// iteration (Fixed.Range walks the insertion list, Map.Range walks cells in
// index order), and free Fixed slots retain stale keys that remove() never
// zeroes — so a logical re-insertion would produce an equal map with a
// different byte-level future. Verbatim layout restore keeps "restore then
// run" byte-identical to "never stopped".

// State walks a Fixed table. The policy and capacity are written as a
// geometry check: a snapshot taken from a differently-shaped table fails to
// load rather than silently mis-restoring.
func (t *Fixed[V]) State(s *snapshot.Coder, elem func(*V)) {
	if !s.Kind("table: policy", uint8(t.policy)) || !s.Fixed("table: capacity", t.capacity) {
		return
	}
	s.U64s(t.keys)
	if !s.Fixed("table: values", len(t.vals)) {
		return
	}
	for i := range t.vals {
		elem(&t.vals[i])
	}
	s.I32s(t.prev)
	s.I32s(t.next)
	s.I32(&t.head)
	s.I32(&t.tail)
	s.I32(&t.freeList)
	s.Int(&t.n)
	s.I32s(t.idx)
	if s.Loading() && s.Err() == nil {
		t.validate(s)
	}
}

// validate bounds-checks the restored linkage so corrupt input cannot plant
// out-of-range slot ids that later index out of bounds.
func (t *Fixed[V]) validate(s *snapshot.Coder) {
	inRange := func(s int32) bool { return s == noSlot || (s >= 0 && int(s) < t.capacity) }
	ok := inRange(t.head) && inRange(t.tail) && inRange(t.freeList) &&
		t.n >= 0 && t.n <= t.capacity
	for _, s := range t.prev {
		ok = ok && inRange(s)
	}
	for _, s := range t.next {
		ok = ok && inRange(s)
	}
	for _, e := range t.idx {
		ok = ok && e >= 0 && int(e) <= t.capacity
	}
	if !ok {
		s.Corrupt("table: Fixed linkage out of range")
	}
}

// State walks a Map cell-for-cell. Loading resizes the backing cells to the
// snapshot's size (the map is unbounded, so the live size is state, not
// geometry); a cell is at least a key and a live flag in the stream.
func (m *Map[V]) State(s *snapshot.Coder, elem func(*V)) {
	size := s.Len("table: Map size", len(m.keys), snapshot.MaxLen, 8+1)
	if s.Err() != nil {
		return
	}
	if size <= 0 || size&(size-1) != 0 {
		s.Corrupt("table: Map size %d not a power of two", size)
		return
	}
	if size != len(m.keys) {
		m.keys = make([]uint64, size)
		m.vals = make([]V, size)
		m.live = make([]bool, size)
		m.mask = uint64(size - 1)
	}
	s.U64s(m.keys)
	if !s.Fixed("table: Map values", len(m.vals)) {
		return
	}
	for i := range m.vals {
		elem(&m.vals[i])
	}
	s.Bools(m.live)
	s.Int(&m.n)
	if s.Loading() && (m.n < 0 || m.n > size) {
		s.Corrupt("table: Map holds %d of %d cells", m.n, size)
	}
}

// State walks a Bits occupancy bitmap (the slot count is geometry and is
// checked on load).
func (b *Bits) State(s *snapshot.Coder) {
	s.Fixed("table: bitmap slots", b.n)
	s.U64s(b.words)
}
