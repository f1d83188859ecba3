package mem

import (
	"slices"
	"unsafe"
)

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

// Arena lets a build reuse the slabs of earlier builds that nothing reads
// any more. Make records every slab it hands out. After a Rewind, Make takes
// any recorded slab of its element type and length that the build has not
// taken yet, wherever it sits in the record, and allocates only when there
// is none: a build of another shape (the same cores with other mechanisms,
// say) reuses every slab the two have in common, in whatever order it asks
// for them. Rewind zeroes the slabs the build took and keeps the ones it
// left untaken, still zeroed, for later builds, as long as their bytes add
// up to at most the most one build from the arena has taken; past that it
// drops the slabs idle longest first. A nil *Arena makes every slab fresh.
// An Arena serves one build at a time; a build lasts until the Rewind, so
// what its structures grow into at run time can come from the arena too.
type Arena struct {
	slabs []arenaSlab
	build uint64  // the current build; a slab it has taken has used == build
	next  int     // where Make's search starts: after the slab taken last
	peak  uintptr // the most bytes one build has taken
}

// arenaSlab is one recorded slab: its element type, its first element, its
// length and size, and the last build that took it. The pointer keeps the
// whole slab alive.
type arenaSlab struct {
	kind  slabKind
	first unsafe.Pointer
	n     int
	bytes uintptr
	used  uint64
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

// Make returns a zeroed []T of length and capacity n: a free recorded slab
// of a with that type and length, else a new one (see Arena).
func Make[T any](a *Arena, n int) []T {
	if a == nil || n == 0 {
		return make([]T, n)
	}
	if i := a.take(kindOf[T]{}, n); i >= 0 {
		return unsafe.Slice((*T)(a.slabs[i].first), n) // zeroed by Rewind
	}
	if a.slabs == nil {
		a.slabs = make([]arenaSlab, 0, arenaRecord)
	}
	s := make([]T, n)
	bytes := uintptr(n) * unsafe.Sizeof(s[0])
	a.slabs = append(a.slabs, arenaSlab{kindOf[T]{}, unsafe.Pointer(&s[0]), n, bytes, a.build})
	a.next = len(a.slabs)
	return s
}

// take marks a recorded slab of the kind and length that the build has not
// taken as taken, and returns its index, or -1 when there is none. The
// search starts after the slab taken last, so a build of the recorded shape
// finds each of its slabs at the first look.
func (a *Arena) take(kind slabKind, n int) int {
	for k := range a.slabs {
		i := (a.next + k) % len(a.slabs)
		if r := &a.slabs[i]; r.n == n && r.used != a.build && r.kind == kind {
			r.used = a.build
			a.next = i + 1
			return i
		}
	}
	return -1
}

// Rewind readies a for the next build, once nothing reads the slabs it has
// handed out: it zeroes the slabs the build took, so the arena holds no
// reference into what the build made, and keeps the untaken ones within
// the bound (see Arena).
func (a *Arena) Rewind() {
	var took, idle uintptr
	for _, r := range a.slabs {
		if r.used == a.build {
			r.kind.clear(r.first, r.n)
			took += r.bytes
		} else {
			idle += r.bytes
		}
	}
	a.peak = max(a.peak, took)
	for idle > a.peak {
		oldest := -1
		for i, r := range a.slabs {
			if r.used != a.build && (oldest < 0 || r.used < a.slabs[oldest].used) {
				oldest = i
			}
		}
		idle -= a.slabs[oldest].bytes
		a.slabs = slices.Delete(a.slabs, oldest, oldest+1)
	}
	a.build++
	a.next = 0
}
