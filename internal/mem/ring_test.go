package mem

import "testing"

func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	if r.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("len %d", r.Len())
	}
	for i := 0; i < 100; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
}

func TestRingWrapAround(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	// Interleave pushes and pops so the head walks around the buffer many
	// times at small occupancy — the pattern the simulator's queues follow.
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if got := r.PopFront(); got != expect {
				t.Fatalf("round %d: pop %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len %d after balanced rounds", r.Len())
	}
}

func TestRingFrontAndAt(t *testing.T) {
	var r Ring[string]
	r.Push("a")
	r.Push("b")
	r.Push("c")
	if *r.Front() != "a" {
		t.Fatalf("front %q", *r.Front())
	}
	if *r.At(2) != "c" {
		t.Fatalf("at(2) %q", *r.At(2))
	}
	*r.Front() = "A" // mutable head, used for in-place bookkeeping
	if got := r.PopFront(); got != "A" {
		t.Fatalf("pop %q", got)
	}
	if *r.At(1) != "c" {
		t.Fatalf("at(1) after pop %q", *r.At(1))
	}
}

func TestRingPanics(t *testing.T) {
	var r Ring[int]
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("PopFront", func() { r.PopFront() })
	r.Push(1)
	mustPanic("At", func() { r.At(1) })
}

func TestRingDoesNotReallocateAtSteadyState(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 16; i++ {
		r.Push(i)
	}
	for r.Len() > 0 {
		r.PopFront()
	}
	before := testingAllocs(func() {
		for round := 0; round < 100; round++ {
			for i := 0; i < 16; i++ {
				r.Push(i)
			}
			for r.Len() > 0 {
				r.PopFront()
			}
		}
	})
	if before > 0 {
		t.Fatalf("steady-state ring allocated %v times", before)
	}
}

func testingAllocs(f func()) float64 {
	return testing.AllocsPerRun(10, f)
}

// TestRingAdoptGrowth: rings given regions of one slab grow out of them,
// never into a neighbour's region, and keep their order across the move.
func TestRingAdoptGrowth(t *testing.T) {
	slab := make([]int, 16)
	var a, b Ring[int]
	a.Adopt(Carve(&slab, 8))
	b.Adopt(Carve(&slab, 8))
	for i := 0; i < 8; i++ {
		b.Push(100 + i)
	}
	for i := 0; i < 20; i++ {
		a.Push(i)
	}
	for i := 0; i < 20; i++ {
		if v := a.PopFront(); v != i {
			t.Fatalf("ring a popped %d, want %d", v, i)
		}
	}
	for i := 0; i < 8; i++ {
		if v := b.PopFront(); v != 100+i {
			t.Fatalf("ring b popped %d, want %d: a's growth wrote into its region", v, 100+i)
		}
	}
	for _, bad := range []func(){
		func() { var r Ring[int]; r.Adopt(make([]int, 6)) },
		func() { var r Ring[int]; r.Push(1); r.Adopt(make([]int, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Adopt took a buffer whose length is not a power of two, or a non-empty ring")
				}
			}()
			bad()
		}()
	}
}

// TestCarveEndsRegions: each carved region's capacity ends at its length.
func TestCarveEndsRegions(t *testing.T) {
	slab := make([]int, 10)
	a, b := Carve(&slab, 3), Carve(&slab, 4)
	if len(a) != 3 || cap(a) != 3 || len(b) != 4 || cap(b) != 4 || len(slab) != 3 {
		t.Fatalf("carved %d/%d and %d/%d leaving %d", len(a), cap(a), len(b), cap(b), len(slab))
	}
	a = append(a, 9)
	if b[0] != 0 {
		t.Fatal("an append to a carved region wrote into the next one")
	}
}
