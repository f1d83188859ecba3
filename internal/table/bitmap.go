package table

import (
	"math/bits"

	"clip/internal/mem"
)

// Bits is a fixed-size occupancy bitmap — the scheduling kernel behind the
// structure-of-arrays tick loop. Hot per-slot scans ("first free MSHR",
// "next occupied VC", "which links have work") become word-wide operations:
// AND the valid mask with a ready mask, then walk the survivors with
// bits.TrailingZeros64. All iteration orders are ascending slot index, so a
// Bits-driven scan reproduces the exact first-match semantics of the naive
// `for i := range slots` loop it replaces (verified by the property test in
// bitmap_test.go).
//
// Storage is allocated once at construction; no method allocates.
type Bits struct {
	words []uint64
	n     int
}

// BitWords returns the words a bitmap of n slots takes.
func BitWords(n int) int { return (n + 63) / 64 }

// CarveBits returns a bitmap of n slots whose words are carved from *slab
// (mem.Carve), all clear if the slab is.
func CarveBits(slab *[]uint64, n int) Bits {
	return Bits{words: mem.Carve(slab, BitWords(n)), n: n}
}

// Len returns the slot count.
func (b *Bits) Len() int { return b.n }

// Set marks slot i occupied.
func (b *Bits) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear marks slot i free.
func (b *Bits) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Test reports whether slot i is occupied.
func (b *Bits) Test(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Reset clears every slot.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of occupied slots.
func (b *Bits) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the lowest occupied slot, or -1 when empty — the bitmap form
// of "first valid entry ascending".
func (b *Bits) First() int {
	for wi, w := range b.words {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// FirstClear returns the lowest free slot, or -1 when full — the bitmap form
// of "first invalid entry ascending" (MSHR allocation).
func (b *Bits) FirstClear() int {
	for wi, w := range b.words {
		if w != ^uint64(0) {
			i := wi<<6 + bits.TrailingZeros64(^w)
			if i >= b.n {
				return -1
			}
			return i
		}
	}
	return -1
}

// Next returns the lowest occupied slot >= i, or -1. Drives ascending
// CLZ-walks: `for i := b.First(); i >= 0; i = b.Next(i + 1)`.
func (b *Bits) Next(i int) int {
	if i >= b.n {
		return -1
	}
	wi := i >> 6
	if w := b.words[wi] &^ (1<<uint(i&63) - 1); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if w := b.words[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Words exposes the backing words for manual hot-path walks (the NoC link
// scan). The caller must not resize it; width is (Len()+63)/64.
func (b *Bits) Words() []uint64 { return b.words }

// NextRR returns the first set bit of mask at or after start, wrapping to
// the lowest set bit when none — the round-robin arbitration kernel. mask
// must only contain bits below width and start must be in [0, width).
// Returns -1 on an empty mask. Equivalent to scanning (start+k)%width for
// k = 0..width-1 and returning the first set index.
func NextRR(mask uint64, start int) int {
	if mask == 0 {
		return -1
	}
	if hi := mask &^ (1<<uint(start) - 1); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(mask)
}
