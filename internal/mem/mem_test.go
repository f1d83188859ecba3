package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestRecordSizes: a Request is copied through every queue of the
// hierarchy and a Response through every reply path, so their layouts are
// pinned: 40 and 56 bytes, no padding but the Response's tail.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n != 40 {
		t.Errorf("Request is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(Response{}); n != 56 {
		t.Errorf("Response is %d bytes, want 56", n)
	}
}

func TestAddrLineAlignment(t *testing.T) {
	cases := []struct {
		in   Addr
		line Addr
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 64},
		{65, 64},
		{4095, 4032},
		{4096, 4096},
	}
	for _, c := range cases {
		if got := c.in.Line(); got != c.line {
			t.Errorf("Addr(%d).Line() = %d, want %d", c.in, got, c.line)
		}
	}
}

func TestAddrPage(t *testing.T) {
	a := Addr(0x12345)
	if a.PageID() != 0x12 {
		t.Fatalf("PageID() = %#x, want 0x12", a.PageID())
	}
}

func TestPageOffsetLineRange(t *testing.T) {
	f := func(x uint64) bool {
		off := Addr(x).PageOffsetLine()
		return off >= 0 && off < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineIDConsistentWithLine(t *testing.T) {
	f := func(x uint64) bool {
		a := Addr(x)
		return a.Line().LineID() == a.LineID()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessTypeString(t *testing.T) {
	for ty, want := range map[AccessType]string{
		Load: "load", Store: "store", Prefetch: "prefetch",
		Writeback: "writeback", Translation: "translation",
	} {
		if ty.String() != want {
			t.Errorf("AccessType %d String = %q, want %q", ty, ty.String(), want)
		}
	}
	if AccessType(99).String() != "AccessType(99)" {
		t.Errorf("unexpected fallback: %s", AccessType(99))
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{
		LevelNone: "none", LevelL1: "L1", LevelL2: "L2",
		LevelLLC: "LLC", LevelDRAM: "DRAM",
	} {
		if lv.String() != want {
			t.Errorf("Level %d String = %q, want %q", lv, lv.String(), want)
		}
	}
}

func TestLevelOrdering(t *testing.T) {
	if !(LevelL1 < LevelL2 && LevelL2 < LevelLLC && LevelLLC < LevelDRAM) {
		t.Fatal("level ordering violated; the miss-level flag relies on it")
	}
}

func TestResponseLatency(t *testing.T) {
	r := Response{Req: Request{IssueCycle: 100}, DoneCycle: 150}
	if r.Latency() != 50 {
		t.Fatalf("Latency = %d, want 50", r.Latency())
	}
	r.DoneCycle = 50 // clock skew must not underflow
	if r.Latency() != 0 {
		t.Fatalf("Latency = %d, want 0", r.Latency())
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a, b := NewPRNG(42), NewPRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestPRNGZeroSeedNotDegenerate(t *testing.T) {
	p := NewPRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[p.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded PRNG produced duplicates: %d unique", len(seen))
	}
}

func TestPRNGIntnBounds(t *testing.T) {
	p := NewPRNG(7)
	for i := 0; i < 10000; i++ {
		v := p.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestPRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPRNG(1).Intn(0)
}

func TestPRNGFloat64Range(t *testing.T) {
	p := NewPRNG(9)
	for i := 0; i < 10000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestPRNGBoolProbability(t *testing.T) {
	p := NewPRNG(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if p.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) frequency %v too far from 0.3", frac)
	}
}

func TestHashStringStableAndDistinct(t *testing.T) {
	if HashString("605.mcf_s-1554B") != HashString("605.mcf_s-1554B") {
		t.Fatal("HashString not stable")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("trivial collision")
	}
	if HashString("") == 0 {
		t.Fatal("empty string hashed to 0; seeds must be nonzero-friendly")
	}
}

func TestMix64AvalancheCheap(t *testing.T) {
	// Flipping one input bit should change many output bits on average.
	totalFlips := 0
	for bit := 0; bit < 64; bit++ {
		d := Mix64(12345) ^ Mix64(12345^(1<<uint(bit)))
		for ; d != 0; d &= d - 1 {
			totalFlips++
		}
	}
	if avg := float64(totalFlips) / 64; avg < 20 {
		t.Fatalf("weak avalanche: avg %v flipped bits", avg)
	}
}
