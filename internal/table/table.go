// Package table provides the map-free associative containers behind the
// simulator's hot per-access paths: prefetcher training tables, criticality
// predictor state, CLIP's per-IP observation table and DSPatch's pattern
// store.
//
// The paper (CLIP §5, Table 4, and the Bingo/SPP storage budgets it
// inherits) models each of these structures as a fixed-size SRAM table with
// an explicit KB budget, yet the first reproduction used Go maps: heap
// allocation per entry, pointer chasing per lookup, and randomized iteration
// order that had to be policed by the clipvet maporder analyzer and
// //clipvet:orderfree annotations. The two kernels here replace all of them:
//
//   - Fixed[V]: a fixed-capacity table with a pluggable replacement policy
//     (FIFO, LRU, or min-key — IPCP's "evict the smallest key" rule).
//     Storage is allocated once at construction; the steady state never
//     allocates. Eviction decisions reproduce the exact policies the
//     map-backed code implemented with side queues, so migrated components
//     produce byte-identical figure reports.
//
//   - Map[V]: an open-addressing hash map for the few genuinely unbounded
//     structures (the prior-art criticality predictors train on every load
//     IP with no hardware budget, by design). Iteration order is a pure
//     function of the insertion sequence — deterministic across runs, unlike
//     a Go map.
//
// Both kernels key on uint64 (IPs, line ids, page ids, signatures — every
// hot structure already uses integer keys) and store values inline, so a
// lookup is one hash, a short linear probe, and no pointer dereference.
// Pointers returned by Get/At/Insert are valid until the next mutating call
// on the same container.
//
// Geometry describes a table's hardware shape (entries x bits/entry) so the
// storage model can state each migrated structure's capacity in KB next to
// the paper's budget (DESIGN.md "Table kernels & storage budgets").
package table

import (
	"fmt"

	"clip/internal/invariant"
	"clip/internal/mem"
)

// Policy selects the replacement policy of a Fixed table.
type Policy uint8

const (
	// FIFO evicts the oldest-inserted entry (the round-robin / queue-backed
	// eviction every migrated prefetcher table used).
	FIFO Policy = iota
	// LRU evicts the least-recently-used entry; Get counts as a use.
	LRU
	// MinKey evicts the entry with the smallest key (IPCP's
	// arbitrary-but-deterministic global-stream region eviction).
	MinKey
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LRU:
		return "lru"
	case MinKey:
		return "minkey"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Geometry is the hardware shape of one table instance: how many entries it
// holds and how wide each entry is. It feeds the storage budget reporting.
type Geometry struct {
	Name      string
	Entries   int
	EntryBits int
	Policy    string
}

// Bits returns the total storage in bits.
func (g Geometry) Bits() int { return g.Entries * g.EntryBits }

// KB returns the total storage in kilobytes.
func (g Geometry) KB() float64 { return float64(g.Bits()) / 8 / 1024 }

// String renders one budget row.
func (g Geometry) String() string {
	return fmt.Sprintf("%s: %d entries x %d bits (%s) = %.2f KB",
		g.Name, g.Entries, g.EntryBits, g.Policy, g.KB())
}

const noSlot = -1

// Fixed is a fixed-capacity associative table keyed by uint64 with inline
// values and a replacement policy. All storage is allocated by NewFixeds;
// no operation allocates afterwards.
//
// Entries are threaded on an insertion-order list (recency order under LRU),
// which Range walks oldest-first — a deterministic order, unlike a Go map.
type Fixed[V any] struct {
	policy   Policy
	capacity int

	// Slot storage, one entry per slot id in [0, capacity).
	keys []uint64
	vals []V

	// Order list (oldest at head). Under LRU, Get moves the entry to the
	// tail; under FIFO/MinKey the list is pure insertion order.
	prev, next []int32
	head, tail int32
	freeList   int32 // chained through next[]
	n          int

	// Open-addressing index: idx[h] holds slot+1, 0 means empty. Sized to a
	// power of two at least twice the capacity, so probe chains stay short.
	idx  []int32
	mask uint64
}

// NewFixeds builds n tables of one capacity and policy. Their columns are
// carved from one slab per column type (keys, values, and the int32 links
// and index), so n tables cost four allocations, and the slabs come from a
// (mem.Make).
func NewFixeds[V any](a *mem.Arena, n, capacity int, policy Policy) []Fixed[V] {
	if capacity <= 0 {
		panic("table: non-positive Fixed capacity")
	}
	idxSize := 4
	for idxSize < 2*capacity {
		idxSize *= 2
	}
	ts := mem.Make[Fixed[V]](a, n)
	keys := mem.Make[uint64](a, n*capacity)
	vals := mem.Make[V](a, n*capacity)
	links := mem.Make[int32](a, n*(2*capacity+idxSize))
	for i := range ts {
		t := &ts[i]
		*t = Fixed[V]{
			policy:   policy,
			capacity: capacity,
			keys:     mem.Carve(&keys, capacity),
			vals:     mem.Carve(&vals, capacity),
			prev:     mem.Carve(&links, capacity),
			next:     mem.Carve(&links, capacity),
			head:     noSlot,
			tail:     noSlot,
			idx:      mem.Carve(&links, idxSize),
			mask:     uint64(idxSize - 1),
		}
		for s := 0; s < capacity-1; s++ {
			t.next[s] = int32(s + 1)
		}
		t.next[capacity-1] = noSlot
		t.freeList = 0
	}
	return ts
}

// Len returns the number of live entries.
func (t *Fixed[V]) Len() int { return t.n }

// Cap returns the capacity.
func (t *Fixed[V]) Cap() int { return t.capacity }

// Geometry describes this table for the storage budget. entryBits is the
// hardware width of one entry (tag + payload), chosen by the caller: the
// simulator stores full-width keys for exactness where hardware would keep
// a partial tag.
func (t *Fixed[V]) Geometry(name string, entryBits int) Geometry {
	return Geometry{Name: name, Entries: t.capacity, EntryBits: entryBits,
		Policy: t.policy.String()}
}

// findIdx returns the index-cell position of key, or the position of the
// empty cell that terminates its probe chain.
func (t *Fixed[V]) findIdx(key uint64) uint64 {
	h := mem.Mix64(key) & t.mask
	for probes := 0; ; probes++ {
		e := t.idx[h]
		if e == 0 || t.keys[e-1] == key {
			if invariant.Enabled {
				invariant.Check(probes <= int(t.mask),
					"table: Fixed probe chain wrapped (capacity %d, index %d)",
					t.capacity, t.mask+1)
			}
			return h
		}
		h = (h + 1) & t.mask
	}
}

// Get returns a pointer to key's value, or nil. Under LRU a hit refreshes
// the entry's recency. The pointer is valid until the next mutating call.
func (t *Fixed[V]) Get(key uint64) *V {
	e := t.idx[t.findIdx(key)]
	if e == 0 {
		return nil
	}
	s := e - 1
	if t.policy == LRU {
		t.listRemove(s)
		t.listAppend(s)
	}
	return &t.vals[s]
}

// Peek returns a pointer to key's value without updating replacement state.
func (t *Fixed[V]) Peek(key uint64) *V {
	e := t.idx[t.findIdx(key)]
	if e == 0 {
		return nil
	}
	return &t.vals[e-1]
}

// Insert stores key -> v. If the key is already present its value is
// overwritten in place (LRU refreshes recency; FIFO keeps the original
// queue position, matching the side-queue code this kernel replaces). If
// the table is full, the policy victim is evicted first and returned.
// The returned pointer addresses the stored value.
func (t *Fixed[V]) Insert(key uint64, v V) (ptr *V, evictedKey uint64, evictedVal V, evicted bool) {
	h := t.findIdx(key)
	if e := t.idx[h]; e != 0 {
		s := e - 1
		t.vals[s] = v
		if t.policy == LRU {
			t.listRemove(s)
			t.listAppend(s)
		}
		return &t.vals[s], 0, evictedVal, false
	}
	if t.n == t.capacity {
		evictedKey, evictedVal, _ = t.PopVictim()
		evicted = true
		// The index shifted during deletion; re-locate the insertion cell.
		h = t.findIdx(key)
	}
	s := t.freeList
	if invariant.Enabled {
		invariant.Check(s != noSlot && t.n < t.capacity,
			"table: Fixed free-list empty with %d/%d entries", t.n, t.capacity)
	}
	t.freeList = t.next[s]
	t.keys[s] = key
	t.vals[s] = v
	t.listAppend(s)
	t.idx[h] = s + 1
	t.n++
	if invariant.Enabled {
		invariant.Check(t.n <= t.capacity,
			"table: Fixed occupancy %d exceeds capacity %d", t.n, t.capacity)
	}
	return &t.vals[s], evictedKey, evictedVal, evicted
}

// GetOrInsert returns a pointer to key's value, inserting the zero value
// first when the key is absent (evicting the policy victim if the table is
// full). present reports whether the key was already there; the eviction
// results mirror Insert's. Hits cost exactly one index probe — the batched
// per-access pattern of the prefetcher training hot paths, which would
// otherwise pay Get and then Insert on every cold IP.
func (t *Fixed[V]) GetOrInsert(key uint64) (ptr *V, present bool, evictedKey uint64, evictedVal V, evicted bool) {
	h := t.findIdx(key)
	if e := t.idx[h]; e != 0 {
		s := e - 1
		if t.policy == LRU {
			t.listRemove(s)
			t.listAppend(s)
		}
		return &t.vals[s], true, 0, evictedVal, false
	}
	if t.n == t.capacity {
		evictedKey, evictedVal, _ = t.PopVictim()
		evicted = true
		// The index shifted during deletion; re-locate the insertion cell.
		h = t.findIdx(key)
	}
	s := t.freeList
	if invariant.Enabled {
		invariant.Check(s != noSlot && t.n < t.capacity,
			"table: Fixed free-list empty with %d/%d entries", t.n, t.capacity)
	}
	t.freeList = t.next[s]
	t.keys[s] = key
	// vals[s] is already the zero value: NewFixeds zero-allocates and remove
	// re-zeroes on the way to the free list.
	t.listAppend(s)
	t.idx[h] = s + 1
	t.n++
	if invariant.Enabled {
		invariant.Check(t.n <= t.capacity,
			"table: Fixed occupancy %d exceeds capacity %d", t.n, t.capacity)
	}
	return &t.vals[s], false, evictedKey, evictedVal, evicted
}

// PopVictim removes and returns the policy victim: the oldest entry (FIFO),
// the least recently used (LRU), or the smallest key (MinKey). ok is false
// on an empty table.
func (t *Fixed[V]) PopVictim() (key uint64, v V, ok bool) {
	if t.n == 0 {
		return 0, v, false
	}
	s := t.head
	if t.policy == MinKey {
		for c := t.head; c != noSlot; c = t.next[c] {
			if t.keys[c] < t.keys[s] {
				s = c
			}
		}
	}
	key, v = t.keys[s], t.vals[s]
	t.remove(s)
	return key, v, true
}

// remove unlinks slot s and repairs the probe chains around its index cell
// (backward-shift deletion keeps lookups tombstone-free and deterministic).
func (t *Fixed[V]) remove(s int32) {
	t.listRemove(s)
	var zero V
	t.vals[s] = zero // release referenced memory
	t.next[s] = t.freeList
	t.freeList = s
	t.n--

	i := t.findIdx(t.keys[s])
	if invariant.Enabled {
		invariant.Check(t.idx[i] == s+1,
			"table: Fixed index cell %d holds slot %d, expected %d", i, t.idx[i]-1, s)
	}
	j := i
	for {
		j = (j + 1) & t.mask
		e := t.idx[j]
		if e == 0 {
			break
		}
		home := mem.Mix64(t.keys[e-1]) & t.mask
		// The entry at j may move back to i iff its home position does not
		// lie in the circular range (i, j].
		if (j-home)&t.mask >= (j-i)&t.mask {
			t.idx[i] = e
			i = j
		}
	}
	t.idx[i] = 0
}

// Range calls f for each entry, oldest first (insertion order under
// FIFO/MinKey, recency order under LRU), stopping if f returns false.
// f may mutate the value through the pointer but must not insert or delete.
func (t *Fixed[V]) Range(f func(key uint64, v *V) bool) {
	for s := t.head; s != noSlot; s = t.next[s] {
		if !f(t.keys[s], &t.vals[s]) {
			return
		}
	}
}

func (t *Fixed[V]) listAppend(s int32) {
	t.prev[s] = t.tail
	t.next[s] = noSlot
	if t.tail != noSlot {
		t.next[t.tail] = s
	} else {
		t.head = s
	}
	t.tail = s
}

func (t *Fixed[V]) listRemove(s int32) {
	if t.prev[s] != noSlot {
		t.next[t.prev[s]] = t.next[s]
	} else {
		t.head = t.next[s]
	}
	if t.next[s] != noSlot {
		t.prev[t.next[s]] = t.prev[s]
	} else {
		t.tail = t.prev[s]
	}
}
