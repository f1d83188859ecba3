package mem

import (
	"testing"
	"unsafe"
)

// TestArenaRecycles: a rewound arena hands back a recorded slab of the
// asked type and length wherever it sits in the record, zeroed, and each
// slab once a build; Make allocates when none is free, and a slab a build
// left untaken waits, still zeroed, for a later build.
func TestArenaRecycles(t *testing.T) {
	a := new(Arena)
	u := Make[uint64](a, 4)
	b := Make[bool](a, 3)
	w := Make[uint64](a, 2)
	for i := range u {
		u[i] = 7
	}
	b[0], w[1] = true, 9

	a.Rewind()
	// Another shape: the calls come in reverse, and one is new.
	f := Make[int32](a, 4)
	if x := Make[int64](a, 4); unsafe.Pointer(&x[0]) == unsafe.Pointer(&u[0]) {
		t.Fatal("a call got a slab of another type")
	}
	w2, b2, u2 := Make[uint64](a, 2), Make[bool](a, 3), Make[uint64](a, 4)
	if &w2[0] != &w[0] || &b2[0] != &b[0] || &u2[0] != &u[0] {
		t.Fatal("a call did not get the recorded slab of its type and length")
	}
	if len(u2) != 4 || cap(u2) != 4 || u2[0] != 0 || b2[0] || w2[1] != 0 {
		t.Fatalf("recycled slabs are not zeroed slabs of their length: %v %v %v", u2, b2, w2)
	}
	u3 := Make[uint64](a, 4)
	if &u3[0] == &u[0] {
		t.Fatal("a build got one slab twice")
	}
	f[3], u2[2], u3[2] = 5, 6, 6

	a.Rewind()
	Make[bool](a, 3) // the build takes neither []uint64 of 4 nor the []int32
	a.Rewind()
	f2, u4 := Make[int32](a, 4), Make[uint64](a, 4)
	if &f2[0] != &f[0] || f2[3] != 0 || (&u4[0] != &u[0] && &u4[0] != &u3[0]) || u4[2] != 0 {
		t.Fatal("the slabs a build left untaken did not wait, zeroed, for the next")
	}
}

// TestArenaRetention: Rewind keeps the slabs a build left untaken while
// their bytes add up to at most the most one build has taken, and past
// that drops the slabs idle longest first.
func TestArenaRetention(t *testing.T) {
	a := new(Arena)
	old1, old2 := Make[uint64](a, 100), Make[uint64](a, 50) // 1,200 bytes: the peak
	a.Rewind()
	recent := Make[uint8](a, 1200) // leaves the first build's 1,200 bytes untaken
	a.Rewind()
	if len(a.slabs) != 3 {
		t.Fatalf("%d slabs recorded after idle bytes equal to the peak, want 3", len(a.slabs))
	}
	Make[uint8](a, 100) // leaves 2,400 bytes untaken
	a.Rewind()
	// The first build's slabs are idle longest: dropping both brings the
	// idle bytes down to the peak.
	if len(a.slabs) != 2 {
		t.Fatalf("%d slabs recorded after idle bytes past the peak, want 2", len(a.slabs))
	}
	if r := Make[uint8](a, 1200); &r[0] != &recent[0] {
		t.Fatal("the slab idle least was dropped")
	}
	if o1, o2 := Make[uint64](a, 100), Make[uint64](a, 50); &o1[0] == &old1[0] || &o2[0] == &old2[0] {
		t.Fatal("a slab idle longest was kept")
	}
}

// TestArenaNil: a nil arena is make, and a zero length records nothing.
func TestArenaNil(t *testing.T) {
	if s := Make[uint64](nil, 5); len(s) != 5 || cap(s) != 5 {
		t.Fatalf("Make(nil, 5) = len %d cap %d", len(s), cap(s))
	}
	a := new(Arena)
	u := Make[uint64](a, 2)
	if s := Make[uint64](a, 0); s == nil || len(s) != 0 {
		t.Fatal("Make(a, 0) is not an empty slice")
	}
	a.Rewind()
	Make[uint64](a, 0)
	if u2 := Make[uint64](a, 2); &u2[0] != &u[0] {
		t.Fatal("a zero-length call took a record entry")
	}
}

// TestArenaAllocs: recording a build costs its slabs, the arena and the
// record; the same build on the rewound arena allocates nothing.
func TestArenaAllocs(t *testing.T) {
	build := func(a *Arena) {
		Make[uint64](a, 64)
		Make[Request](a, 8)
		Make[*Request](a, 8)
	}
	var a *Arena
	if n := testing.AllocsPerRun(1, func() { a = new(Arena); build(a) }); n != 5 {
		t.Errorf("recording a build of three slabs made %v allocations, want 5", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.Rewind(); build(a) }); n != 0 {
		t.Errorf("a recycled build made %v allocations, want 0", n)
	}
}
