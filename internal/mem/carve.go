package mem

import "unsafe"

// Carve cuts the first n elements off *slab and returns them with cap == len.
// A per-kind builder allocates one slab per column type for every member of
// its kind and carves each member's columns from it; because a region's
// capacity ends where it does, an append to it reallocates instead of
// writing into the next member's region.
func Carve[T any](slab *[]T, n int) []T {
	c := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return c
}

// Arena lets a build reuse the slabs of an earlier build that nothing reads
// any more. Make records every slab it hands out, in call order; Rewind
// zeroes them, and after it the i-th Make returns the i-th recorded slab
// when its element type and length match. At the first call that does not
// match, Make allocates afresh and forgets the rest of the record. A second
// build of the same shape thus allocates no slab, and a build of another
// shape reuses the slabs up to where the two first differ. A nil *Arena
// makes every slab fresh. An Arena serves one build at a time.
type Arena struct {
	slabs []arenaSlab
	next  int // the record index the next Make compares against
}

// arenaSlab is one recorded slab: its element type, its first element and
// its length. The pointer keeps the whole slab alive.
type arenaSlab struct {
	kind  slabKind
	first unsafe.Pointer
	n     int
}

// slabKind is a slab's element type: kindOf[T]{}, which two slabs share
// exactly when their element types are the same, and which zeroes a slab of
// that type. Being of zero size, it is stored in an interface without an
// allocation.
type slabKind interface {
	clear(first unsafe.Pointer, n int)
}

type kindOf[T any] struct{}

func (kindOf[T]) clear(first unsafe.Pointer, n int) { clear(unsafe.Slice((*T)(first), n)) }

// arenaRecord is the capacity of a new record: more than the slabs of one
// simulated system, so recording a build costs one allocation.
const arenaRecord = 128

// Make returns a zeroed []T of length and capacity n: the next recorded slab
// of a when it has that type and length, else a new one (see Arena).
func Make[T any](a *Arena, n int) []T {
	if a == nil || n == 0 {
		return make([]T, n)
	}
	kind := slabKind(kindOf[T]{})
	if a.next < len(a.slabs) {
		if r := a.slabs[a.next]; r.kind == kind && r.n == n {
			a.next++
			return unsafe.Slice((*T)(r.first), n) // zeroed by Rewind
		}
		clear(a.slabs[a.next:])
		a.slabs = a.slabs[:a.next]
	}
	if a.slabs == nil {
		a.slabs = make([]arenaSlab, 0, arenaRecord)
	}
	s := make([]T, n)
	a.slabs = append(a.slabs, arenaSlab{kind, unsafe.Pointer(&s[0]), n})
	a.next++
	return s
}

// Rewind readies a for the next build, once nothing reads the slabs it has
// handed out: it zeroes them, so the arena holds no reference into what the
// last build made, and forgets the recorded slabs that build did not take.
// The next Make compares against the first slab again.
func (a *Arena) Rewind() {
	for _, r := range a.slabs[:a.next] {
		r.kind.clear(r.first, r.n)
	}
	clear(a.slabs[a.next:])
	a.slabs = a.slabs[:a.next]
	a.next = 0
}
