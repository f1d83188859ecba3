package sim

import (
	"testing"

	"clip/internal/tlb"
)

// testICache is an L1I of any geometry: sets x ways, a miss costing
// missPenalty.
func testICache(sets, ways int, missPenalty uint64) *icache {
	slab := make([]uint64, tlb.TagArrayWords(sets, ways))
	return &icache{tags: tlb.CarveTagArray(&slab, sets, ways), missPenalty: missPenalty}
}

func TestICacheHitAfterFill(t *testing.T) {
	ic := testICache(8, 8, 30)
	if stall := ic.fetch(0x400000); stall != 30 {
		t.Fatalf("cold fetch stall = %d, want 30", stall)
	}
	if stall := ic.fetch(0x400004); stall != 0 {
		t.Fatalf("same-block fetch stalled %d", stall)
	}
	if stall := ic.fetch(0x400000); stall != 0 {
		t.Fatalf("refetch stalled %d", stall)
	}
	if ic.stats.Fetches != 3 || ic.stats.Misses != 1 {
		t.Fatalf("stats %+v", ic.stats)
	}
	if hr := ic.stats.HitRate(); hr < 0.6 || hr > 0.7 {
		t.Fatalf("hit rate %v, want 2/3", hr)
	}
}

func TestICacheLRUEviction(t *testing.T) {
	ic := testICache(1, 2, 30) // 2 blocks capacity
	ic.fetch(0x1000)           // A
	ic.fetch(0x2000)           // B
	ic.fetch(0x1000)           // touch A: B is LRU
	ic.fetch(0x3000)           // C evicts B
	if stall := ic.fetch(0x1000); stall != 0 {
		t.Fatal("A evicted despite recency")
	}
	if stall := ic.fetch(0x2000); stall == 0 {
		t.Fatal("B should have been evicted")
	}
}

// TestL1ISetsArePowersOfTwo: the tag array masks its set hash with sets-1,
// so an L1I with, say, 21 sets (ScaleDivisor 6) could reach only 4 of them.
func TestL1ISetsArePowersOfTwo(t *testing.T) {
	for div := 1; div <= 32; div++ {
		if sets := l1iSets(div); sets < 8 || sets&(sets-1) != 0 {
			t.Fatalf("div %d: L1I of %d sets, want a power of two >= 8", div, sets)
		}
	}
}

func TestDynamicClipHysteresis(t *testing.T) {
	d := &dynamicClip{active: true}
	// High utilization: stays engaged.
	for cy := uint64(0); cy < 3*dynClipEpoch; cy++ {
		d.update(cy, 0.9)
	}
	if !d.active {
		t.Fatal("disengaged under high utilization")
	}
	// Mid-band (between thresholds): holds state.
	for cy := uint64(3 * dynClipEpoch); cy < 4*dynClipEpoch; cy++ {
		d.update(cy, 0.45)
	}
	if !d.active {
		t.Fatal("mid-band should hold the engaged state")
	}
	// Low utilization: releases.
	for cy := uint64(4 * dynClipEpoch); cy < 6*dynClipEpoch; cy++ {
		d.update(cy, 0.1)
	}
	if d.active {
		t.Fatal("still engaged under low utilization")
	}
	// Mid-band again: stays released.
	for cy := uint64(6 * dynClipEpoch); cy < 7*dynClipEpoch; cy++ {
		d.update(cy, 0.45)
	}
	if d.active {
		t.Fatal("mid-band should hold the released state")
	}
	frac := d.ActiveFraction()
	if frac <= 0.4 || frac >= 0.8 {
		t.Fatalf("active fraction %v outside the mixed-run band", frac)
	}
	d.resetCounters()
	if d.ActiveFraction() != 0 {
		t.Fatal("counters not reset")
	}
}
