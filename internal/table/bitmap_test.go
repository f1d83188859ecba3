package table

import (
	"testing"

	"clip/internal/mem"
)

// naiveBits mirrors Bits with a plain bool slice — the per-entry loops the
// bitmap kernels replaced. Every Bits query must agree with it on random
// occupancy patterns, sizes straddling word boundaries included.
type naiveBits struct{ slots []bool }

func (n *naiveBits) first() int {
	for i, v := range n.slots {
		if v {
			return i
		}
	}
	return -1
}

func (n *naiveBits) firstClear() int {
	for i, v := range n.slots {
		if !v {
			return i
		}
	}
	return -1
}

func (n *naiveBits) next(i int) int {
	for ; i < len(n.slots); i++ {
		if n.slots[i] {
			return i
		}
	}
	return -1
}

func (n *naiveBits) count() int {
	c := 0
	for _, v := range n.slots {
		if v {
			c++
		}
	}
	return c
}

// TestBitsMatchesNaiveScan drives random set/clear sequences over sizes that
// cover partial words, full words and multi-word maps, checking every query
// against the naive slot loop after each mutation.
func TestBitsMatchesNaiveScan(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 200} {
		rng := mem.NewPRNG(uint64(n)*977 + 13)
		words := make([]uint64, BitWords(n))
		b := CarveBits(&words, n)
		ref := &naiveBits{slots: make([]bool, n)}
		for step := 0; step < 2000; step++ {
			i := int(rng.Uint64() % uint64(n))
			if rng.Uint64()&1 == 0 {
				b.Set(i)
				ref.slots[i] = true
			} else {
				b.Clear(i)
				ref.slots[i] = false
			}
			if got, want := b.Test(i), ref.slots[i]; got != want {
				t.Fatalf("n=%d step=%d: Test(%d)=%v want %v", n, step, i, got, want)
			}
			if got, want := b.First(), ref.first(); got != want {
				t.Fatalf("n=%d step=%d: First()=%d want %d", n, step, got, want)
			}
			if got, want := b.FirstClear(), ref.firstClear(); got != want {
				t.Fatalf("n=%d step=%d: FirstClear()=%d want %d", n, step, got, want)
			}
			if got, want := b.Count(), ref.count(); got != want {
				t.Fatalf("n=%d step=%d: Count()=%d want %d", n, step, got, want)
			}
			from := int(rng.Uint64() % uint64(n+1))
			if got, want := b.Next(from), ref.next(from); got != want {
				t.Fatalf("n=%d step=%d: Next(%d)=%d want %d", n, step, from, got, want)
			}
		}
		// Ascending walk enumerates exactly the set slots in order.
		var walk []int
		for i := b.First(); i >= 0; i = b.Next(i + 1) {
			walk = append(walk, i)
		}
		var want []int
		for i, v := range ref.slots {
			if v {
				want = append(want, i)
			}
		}
		if len(walk) != len(want) {
			t.Fatalf("n=%d: walk enumerated %d slots, want %d", n, len(walk), len(want))
		}
		for i := range walk {
			if walk[i] != want[i] {
				t.Fatalf("n=%d: walk[%d]=%d want %d", n, i, walk[i], want[i])
			}
		}
	}
}

// TestNextRRMatchesScan checks the round-robin kernel against the modular
// scan it replaces, over random masks and every start position.
func TestNextRRMatchesScan(t *testing.T) {
	rng := mem.NewPRNG(42)
	for _, width := range []int{1, 2, 4, 6, 16, 64} {
		for trial := 0; trial < 500; trial++ {
			var mask uint64
			if width == 64 {
				mask = rng.Uint64()
			} else {
				mask = rng.Uint64() & (1<<uint(width) - 1)
			}
			for start := 0; start < width; start++ {
				want := -1
				for k := 0; k < width; k++ {
					v := (start + k) % width
					if mask&(1<<uint(v)) != 0 {
						want = v
						break
					}
				}
				if got := NextRR(mask, start); got != want {
					t.Fatalf("width=%d mask=%#x start=%d: NextRR=%d want %d",
						width, mask, start, got, want)
				}
			}
		}
	}
}
