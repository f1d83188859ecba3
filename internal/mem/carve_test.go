package mem

import "testing"

// TestArenaRecycles: a rewound arena hands its slabs back in call order,
// zeroed, while type and length match; at the first mismatch it allocates
// afresh from there on and forgets the rest of its record.
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
	u2, b2 := Make[uint64](a, 4), Make[bool](a, 3)
	if &u2[0] != &u[0] || &b2[0] != &b[0] {
		t.Fatal("a matching call did not get its recorded slab")
	}
	if len(u2) != 4 || cap(u2) != 4 || u2[0] != 0 || b2[0] {
		t.Fatalf("recycled slabs are not zeroed slabs of their length: %v %v", u2, b2)
	}
	// The third record is a []uint64 of 2: a []uint64 of 3 does not match.
	w2 := Make[uint64](a, 3)
	if &w2[0] == &w[0] || len(w2) != 3 {
		t.Fatal("a call of another length got the recorded slab")
	}

	a.Rewind()
	Make[uint64](a, 4)
	Make[bool](a, 3)
	if w3 := Make[uint64](a, 3); &w3[0] != &w2[0] {
		t.Fatal("the slab allocated after a mismatch was not recorded in its place")
	}

	a.Rewind()
	if f := Make[int32](a, 4); len(f) != 4 {
		t.Fatal("a mismatching first call did not allocate")
	}
	if u4 := Make[uint64](a, 4); &u4[0] == &u[0] {
		t.Fatal("the record after a mismatch was not forgotten")
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
