package mem

import "clip/internal/invariant"

// Ring is a growable FIFO queue backed by a circular buffer. The zero value
// is ready to use.
//
// The simulator's hot loops previously drained queues with the append/reslice
// idiom (q = q[1:]), which retains the dead head of the backing array and
// reallocates on every refill; a Ring reuses its buffer indefinitely, so a
// queue that reaches steady state stops allocating entirely.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v to the back of the queue.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	if invariant.Enabled {
		invariant.Check(len(r.buf)&(len(r.buf)-1) == 0,
			"mem.Ring: buffer size %d is not a power of two", len(r.buf))
		invariant.Check(r.n < len(r.buf),
			"mem.Ring: push into full buffer (n=%d cap=%d)", r.n, len(r.buf))
		invariant.Check(r.head >= 0 && r.head < len(r.buf),
			"mem.Ring: head %d out of bounds [0,%d)", r.head, len(r.buf))
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the front element. It zeroes the vacated slot
// so popped elements do not pin referenced memory.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("mem: PopFront on empty Ring")
	}
	if invariant.Enabled {
		invariant.Check(r.n <= len(r.buf),
			"mem.Ring: occupancy %d exceeds buffer %d", r.n, len(r.buf))
		invariant.Check(r.head >= 0 && r.head < len(r.buf),
			"mem.Ring: head %d out of bounds [0,%d)", r.head, len(r.buf))
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Front returns a pointer to the front element (valid until the next Push or
// PopFront).
func (r *Ring[T]) Front() *T { return r.At(0) }

// At returns a pointer to the i-th element from the front.
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("mem: Ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Adopt makes the empty ring use buf, whose length must be a power of two,
// as its buffer: a builder sizes many rings at once by carving their buffers
// from one slab. Growing past buf allocates a new buffer, as it does for any
// ring, so a neighbour's region is never written.
func (r *Ring[T]) Adopt(buf []T) {
	if r.n != 0 || len(buf)&(len(buf)-1) != 0 {
		panic("mem: Adopt by a non-empty Ring or of a buffer whose length is not a power of two")
	}
	r.buf, r.head = buf, 0
}

// RingSlots is the buffer a Ring's first growth allocates, and so the depth
// a builder carves a queue at when the model leaves the queue unbounded: the
// queue costs what it did when it grew from nil, paid at construction.
const RingSlots = 8

// grow doubles the buffer (power-of-two sizes keep the index math mask-based).
func (r *Ring[T]) grow() {
	c := len(r.buf) * 2
	if c == 0 {
		c = RingSlots
	}
	buf := make([]T, c)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// Grow ensures capacity for at least n elements without further allocation
// (rounded up to a power of two). Construction-time sizing for queues whose
// steady-state depth is known keeps the hot path from ever calling grow.
func (r *Ring[T]) Grow(n int) {
	if n <= len(r.buf) {
		return
	}
	c := len(r.buf) * 2
	if c == 0 {
		c = RingSlots
	}
	for c < n {
		c *= 2
	}
	buf := make([]T, c)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
