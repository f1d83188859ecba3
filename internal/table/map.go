package table

import (
	"clip/internal/invariant"
	"clip/internal/mem"
)

// Map is an open-addressing hash map keyed by uint64 with inline values, for
// the few genuinely unbounded simulator structures (the prior-art criticality
// predictors train on every load IP with no hardware budget). Unlike a Go
// map, iteration order is a pure function of the insertion sequence, so
// ranging over it is deterministic across runs and worker counts.
//
// The zero value is not usable; construct with NewMaps. Pointers returned by
// Get/At are valid until the next At on a missing key (which may grow and
// rehash the backing arrays).
type Map[V any] struct {
	keys []uint64
	vals []V
	live []bool
	n    int
	mask uint64
}

// NewMaps builds n maps pre-sized for sizeHint entries each, their cells
// carved from one slab per column, taken from a (mem.Make). A map that
// outgrows its cells moves to cells of its own (grow allocates), leaving the
// slab's other regions alone.
func NewMaps[V any](a *mem.Arena, n, sizeHint int) []Map[V] {
	size := 16
	for size < 2*sizeHint {
		size *= 2
	}
	ms := mem.Make[Map[V]](a, n)
	keys := mem.Make[uint64](a, n*size)
	vals := mem.Make[V](a, n*size)
	live := mem.Make[bool](a, n*size)
	for i := range ms {
		ms[i] = Map[V]{
			keys: mem.Carve(&keys, size),
			vals: mem.Carve(&vals, size),
			live: mem.Carve(&live, size),
			mask: uint64(size - 1),
		}
	}
	return ms
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// find returns the cell holding key, or the empty cell terminating its probe
// chain.
func (m *Map[V]) find(key uint64) uint64 {
	h := mem.Mix64(key) & m.mask
	for probes := 0; ; probes++ {
		if !m.live[h] || m.keys[h] == key {
			if invariant.Enabled {
				invariant.Check(probes <= int(m.mask),
					"table: Map probe chain wrapped (%d entries, %d cells)",
					m.n, m.mask+1)
			}
			return h
		}
		h = (h + 1) & m.mask
	}
}

// Get returns a pointer to key's value, or nil if absent.
func (m *Map[V]) Get(key uint64) *V {
	h := m.find(key)
	if !m.live[h] {
		return nil
	}
	return &m.vals[h]
}

// At returns a pointer to key's value, inserting a zero value if absent.
func (m *Map[V]) At(key uint64) *V {
	h := m.find(key)
	if m.live[h] {
		return &m.vals[h]
	}
	// Keep load factor below 3/4 so probe chains stay short.
	if uint64(m.n+1)*4 > (m.mask+1)*3 {
		m.grow()
		h = m.find(key)
	}
	m.live[h] = true
	m.keys[h] = key
	var zero V
	m.vals[h] = zero
	m.n++
	return &m.vals[h]
}

func (m *Map[V]) grow() {
	oldKeys, oldVals, oldLive := m.keys, m.vals, m.live
	size := 2 * len(oldKeys)
	m.keys = make([]uint64, size)
	m.vals = make([]V, size)
	m.live = make([]bool, size)
	m.mask = uint64(size - 1)
	for i, ok := range oldLive {
		if !ok {
			continue
		}
		h := m.find(oldKeys[i])
		m.live[h] = true
		m.keys[h] = oldKeys[i]
		m.vals[h] = oldVals[i]
	}
}

// Range calls f for each entry in cell order — deterministic for a given
// op sequence — stopping if f returns false. f may mutate values through
// the pointer but must not call At on missing keys.
func (m *Map[V]) Range(f func(key uint64, v *V) bool) {
	for i := range m.live {
		if m.live[i] && !f(m.keys[i], &m.vals[i]) {
			return
		}
	}
}

// Geometry describes this map for storage reporting; Entries reflects the
// current population since the structure is unbounded by design.
func (m *Map[V]) Geometry(name string, entryBits int) Geometry {
	return Geometry{Name: name, Entries: m.n, EntryBits: entryBits, Policy: "unbounded"}
}
