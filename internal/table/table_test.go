package table

import (
	"testing"

	"clip/internal/mem"
)

// newFixed and newMap are one table or map with slabs of its own.
func newFixed[V any](capacity int, policy Policy) *Fixed[V] {
	return &NewFixeds[V](nil, 1, capacity, policy)[0]
}

func newMap[V any](sizeHint int) *Map[V] { return &NewMaps[V](nil, 1, sizeHint)[0] }

func TestFixedFIFOEviction(t *testing.T) {
	tb := newFixed[int](4, FIFO)
	for i := 0; i < 4; i++ {
		if _, _, _, ev := tb.Insert(uint64(i), i*10); ev {
			t.Fatalf("unexpected eviction inserting %d", i)
		}
	}
	if tb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tb.Len())
	}
	// Overwriting an existing key must not evict or change queue position.
	if _, _, _, ev := tb.Insert(0, 99); ev {
		t.Fatal("overwrite evicted")
	}
	_, ek, evVal, ev := tb.Insert(5, 50)
	if !ev || ek != 0 || evVal != 99 {
		t.Fatalf("evicted (%d,%d,%v), want (0,99,true)", ek, evVal, ev)
	}
	if tb.Get(0) != nil {
		t.Fatal("evicted key still present")
	}
	if v := tb.Get(5); v == nil || *v != 50 {
		t.Fatal("inserted key missing")
	}
}

func TestFixedLRUTouch(t *testing.T) {
	tb := newFixed[int](3, LRU)
	tb.Insert(1, 1)
	tb.Insert(2, 2)
	tb.Insert(3, 3)
	tb.Get(1) // 2 is now LRU
	_, ek, _, ev := tb.Insert(4, 4)
	if !ev || ek != 2 {
		t.Fatalf("evicted %d (ev=%v), want 2", ek, ev)
	}
	// Peek must not refresh: 3 stays LRU.
	tb.Peek(3)
	_, ek, _, _ = tb.Insert(5, 5)
	if ek != 3 {
		t.Fatalf("evicted %d, want 3", ek)
	}
}

func TestFixedMinKeyEviction(t *testing.T) {
	tb := newFixed[string](3, MinKey)
	tb.Insert(30, "c")
	tb.Insert(10, "a")
	tb.Insert(20, "b")
	_, ek, evVal, ev := tb.Insert(40, "d")
	if !ev || ek != 10 || evVal != "a" {
		t.Fatalf("evicted (%d,%q), want (10,a)", ek, evVal)
	}
}

// TestFixedDeleteAndReuse: PopVictim removes FIFO's oldest entries, and the
// freed slots take new keys without evicting.
func TestFixedDeleteAndReuse(t *testing.T) {
	tb := newFixed[int](8, FIFO)
	for i := 0; i < 8; i++ {
		tb.Insert(uint64(i), i)
	}
	for i := 0; i < 4; i++ {
		if k, v, ok := tb.PopVictim(); !ok || k != uint64(i) || v != i {
			t.Fatalf("PopVictim = (%d,%d,%v), want (%d,%d,true)", k, v, ok, i, i)
		}
		if tb.Get(uint64(i)) != nil {
			t.Fatalf("popped key %d still present", i)
		}
	}
	if tb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tb.Len())
	}
	for i := 4; i < 8; i++ {
		if v := tb.Get(uint64(i)); v == nil || *v != i {
			t.Fatalf("survivor %d missing", i)
		}
	}
	// Refill to capacity through the free list.
	for i := 100; i < 104; i++ {
		if _, _, _, ev := tb.Insert(uint64(i), i); ev {
			t.Fatalf("eviction while below capacity")
		}
	}
	if tb.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tb.Len())
	}
}

func TestFixedRangeOrder(t *testing.T) {
	tb := newFixed[int](4, FIFO)
	keys := []uint64{7, 3, 9, 1}
	for i, k := range keys {
		tb.Insert(k, i)
	}
	var got []uint64
	tb.Range(func(k uint64, v *int) bool {
		got = append(got, k)
		return true
	})
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("Range order %v, want %v", got, keys)
		}
	}
}

func TestFixedPointerStability(t *testing.T) {
	tb := newFixed[int](4, FIFO)
	p, _, _, _ := tb.Insert(42, 1)
	*p = 7
	if v := tb.Get(42); v == nil || *v != 7 {
		t.Fatal("mutation through Insert pointer lost")
	}
	*tb.Get(42) = 8
	if *tb.Peek(42) != 8 {
		t.Fatal("mutation through Get pointer lost")
	}
}

func TestMapBasics(t *testing.T) {
	m := newMap[int](0)
	if m.Get(1) != nil {
		t.Fatal("Get on empty map")
	}
	*m.At(1) = 10
	*m.At(2) = 20
	*m.At(1) += 5
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v := m.Get(1); v == nil || *v != 15 {
		t.Fatal("At did not upsert in place")
	}
	// Force growth and verify survival.
	for i := uint64(0); i < 1000; i++ {
		*m.At(i) = int(i)
	}
	for i := uint64(2); i < 1000; i++ {
		if v := m.Get(i); v == nil || *v != int(i) {
			t.Fatalf("key %d lost across growth", i)
		}
	}
}

func TestGeometry(t *testing.T) {
	tb := newFixed[int](64, FIFO)
	g := tb.Geometry("berti table", 128)
	if g.Bits() != 64*128 {
		t.Fatalf("Bits = %d", g.Bits())
	}
	if g.KB() != 1.0 {
		t.Fatalf("KB = %v, want 1", g.KB())
	}
}

// --- Property tests: drive kernel and a reference model (Go map + explicit
// eviction bookkeeping) with the same seeded op sequence and require
// identical observable behaviour. Run in CI under -race and -tags clipdebug.

// refFixed models Fixed with a map plus an explicit order slice.
type refFixed struct {
	policy Policy
	cap    int
	m      map[uint64]int
	order  []uint64 // oldest first; recency order for LRU
}

func newRefFixed(capacity int, policy Policy) *refFixed {
	return &refFixed{policy: policy, cap: capacity, m: map[uint64]int{}}
}

func (r *refFixed) touch(key uint64) {
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			r.order = append(r.order, key)
			return
		}
	}
}

func (r *refFixed) victim() int {
	vi := 0
	if r.policy == MinKey {
		for i, k := range r.order {
			if k < r.order[vi] {
				vi = i
			}
		}
	}
	return vi
}

func (r *refFixed) get(key uint64) (int, bool) {
	v, ok := r.m[key]
	if ok && r.policy == LRU {
		r.touch(key)
	}
	return v, ok
}

func (r *refFixed) insert(key uint64, v int) (uint64, int, bool) {
	if _, ok := r.m[key]; ok {
		r.m[key] = v
		if r.policy == LRU {
			r.touch(key)
		}
		return 0, 0, false
	}
	var ek uint64
	var evd int
	evicted := false
	if len(r.m) == r.cap {
		vi := r.victim()
		ek = r.order[vi]
		evd = r.m[ek]
		delete(r.m, ek)
		r.order = append(r.order[:vi], r.order[vi+1:]...)
		evicted = true
	}
	r.m[key] = v
	r.order = append(r.order, key)
	return ek, evd, evicted
}

func (r *refFixed) del(key uint64) bool {
	if _, ok := r.m[key]; !ok {
		return false
	}
	delete(r.m, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

func (r *refFixed) pop() (uint64, int, bool) {
	if len(r.m) == 0 {
		return 0, 0, false
	}
	vi := r.victim()
	k := r.order[vi]
	v := r.m[k]
	r.del(k)
	return k, v, true
}

func checkAgainstRef(t *testing.T, step int, tb *Fixed[int], ref *refFixed) {
	t.Helper()
	if tb.Len() != len(ref.m) {
		t.Fatalf("step %d: Len = %d, ref %d", step, tb.Len(), len(ref.m))
	}
	var gotK []uint64
	var gotV []int
	tb.Range(func(k uint64, v *int) bool {
		gotK = append(gotK, k)
		gotV = append(gotV, *v)
		return true
	})
	if len(gotK) != len(ref.order) {
		t.Fatalf("step %d: Range yields %d entries, ref %d", step, len(gotK), len(ref.order))
	}
	for i, k := range ref.order {
		if gotK[i] != k || gotV[i] != ref.m[k] {
			t.Fatalf("step %d: Range[%d] = (%d,%d), ref (%d,%d)",
				step, i, gotK[i], gotV[i], k, ref.m[k])
		}
	}
}

func TestFixedMatchesReferenceModel(t *testing.T) {
	for _, policy := range []Policy{FIFO, LRU, MinKey} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			for _, capacity := range []int{1, 2, 7, 32} {
				rng := mem.NewPRNG(0xC11F0000 + uint64(capacity))
				tb := newFixed[int](capacity, policy)
				ref := newRefFixed(capacity, policy)
				keySpace := uint64(3 * capacity) // force collisions and evictions
				for step := 0; step < 20000; step++ {
					key := rng.Uint64() % keySpace
					switch rng.Uint64() % 10 {
					case 0, 1, 2, 3: // insert
						v := int(rng.Uint64() % 1000)
						ptr, ek, evd, ev := tb.Insert(key, v)
						rk, rv, rev := ref.insert(key, v)
						if ev != rev || (ev && (ek != rk || evd != rv)) {
							t.Fatalf("step %d: Insert evicted (%d,%d,%v), ref (%d,%d,%v)",
								step, ek, evd, ev, rk, rv, rev)
						}
						if *ptr != v {
							t.Fatalf("step %d: Insert pointer reads %d, want %d", step, *ptr, v)
						}
					case 4, 5, 6: // get (+ in-place mutation through the pointer)
						p := tb.Get(key)
						rv, rok := ref.get(key)
						if (p != nil) != rok || (p != nil && *p != rv) {
							t.Fatalf("step %d: Get(%d) mismatch", step, key)
						}
						if p != nil && rng.Uint64()%2 == 0 {
							*p++
							ref.m[key]++
						}
					case 7, 8: // peek
						p := tb.Peek(key)
						rv, rok := ref.m[key]
						if (p != nil) != rok || (p != nil && *p != rv) {
							t.Fatalf("step %d: Peek(%d) mismatch", step, key)
						}
					case 9: // pop victim
						k, v, ok := tb.PopVictim()
						rk, rv, rok := ref.pop()
						if ok != rok || k != rk || v != rv {
							t.Fatalf("step %d: PopVictim = (%d,%d,%v), ref (%d,%d,%v)",
								step, k, v, ok, rk, rv, rok)
						}
					}
					if step%257 == 0 || step > 19900 {
						checkAgainstRef(t, step, tb, ref)
					}
				}
				checkAgainstRef(t, -1, tb, ref)
			}
		})
	}
}

func TestMapMatchesReferenceModel(t *testing.T) {
	rng := mem.NewPRNG(0xC11F1111)
	m := newMap[int](0)
	ref := map[uint64]int{}
	for step := 0; step < 50000; step++ {
		key := rng.Uint64() % 4096
		switch rng.Uint64() % 3 {
		case 0:
			v := int(rng.Uint64() % 1000)
			*m.At(key) = v
			ref[key] = v
		case 1:
			*m.At(key)++ // At inserts zero when absent, so ref mirrors that
			ref[key]++
		case 2:
			p := m.Get(key)
			rv, rok := ref[key]
			if (p != nil) != rok || (p != nil && *p != rv) {
				t.Fatalf("step %d: Get(%d) mismatch", step, key)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, ref %d", step, m.Len(), len(ref))
		}
	}
	// Range must visit every key exactly once with matching values.
	seen := map[uint64]int{}
	m.Range(func(k uint64, v *int) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range visited %d twice", k)
		}
		seen[k] = *v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range visited %d keys, ref %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("Range value for %d = %d, ref %d", k, seen[k], v)
		}
	}
}

// Range order of Map must be a pure function of the op sequence: two maps
// fed the same sequence iterate identically.
func TestMapRangeDeterministic(t *testing.T) {
	build := func() *Map[int] {
		rng := mem.NewPRNG(0xDE7E12)
		m := newMap[int](0)
		for i := 0; i < 3000; i++ {
			*m.At(rng.Uint64() % 1024) = i
		}
		return m
	}
	a, b := build(), build()
	var ka, kb []uint64
	a.Range(func(k uint64, _ *int) bool { ka = append(ka, k); return true })
	b.Range(func(k uint64, _ *int) bool { kb = append(kb, k); return true })
	if len(ka) != len(kb) {
		t.Fatalf("lengths differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("iteration order diverges at %d: %d vs %d", i, ka[i], kb[i])
		}
	}
}

func TestFixedSteadyStateAllocFree(t *testing.T) {
	tb := newFixed[int](32, LRU)
	rng := mem.NewPRNG(1)
	allocs := testing.AllocsPerRun(1000, func() {
		k := rng.Uint64() % 128
		if p := tb.Get(k); p != nil {
			*p++
		} else {
			tb.Insert(k, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMapsGrowthIsolation: the maps of one NewMaps start in cells carved
// from shared slabs; one that outgrows its cells moves to its own and leaves
// its neighbour's alone.
func TestMapsGrowthIsolation(t *testing.T) {
	ms := NewMaps[int](nil, 2, 0)
	*ms[1].At(42) = 7
	keys := append([]uint64(nil), ms[1].keys...)
	for k := uint64(0); k < 100; k++ {
		*ms[0].At(k) = int(k)
	}
	if v := ms[1].Get(42); v == nil || *v != 7 || ms[1].Len() != 1 {
		t.Fatal("map 1 lost its entry when map 0 grew")
	}
	for i, k := range ms[1].keys {
		if k != keys[i] {
			t.Fatalf("cell %d of map 1 changed when map 0 grew", i)
		}
	}
	for k := uint64(0); k < 100; k++ {
		if v := ms[0].Get(k); v == nil || *v != int(k) {
			t.Fatalf("map 0 lost key %d", k)
		}
	}
}

// TestFixedsAreIndependent: the tables of one NewFixeds share slabs but not
// slots: filling one past its capacity evicts only its own entries.
func TestFixedsAreIndependent(t *testing.T) {
	ts := NewFixeds[int](nil, 2, 4, FIFO)
	ts[1].Insert(99, 99)
	for k := 0; k < 10; k++ {
		ts[0].Insert(uint64(k), k)
	}
	if v := ts[1].Get(99); v == nil || *v != 99 || ts[1].Len() != 1 || ts[0].Len() != 4 {
		t.Fatal("tables of one NewFixeds interfere")
	}
}
