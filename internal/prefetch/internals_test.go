package prefetch

import (
	"testing"

	"clip/internal/invariant"
	"clip/internal/mem"
)

func TestBertiTableEviction(t *testing.T) {
	b := &newBertis(nil, 1)[0]
	// Touch more IPs than the table holds; the table must stay bounded and
	// keep working for fresh IPs.
	for ip := uint64(0); ip < bertiTableSize+32; ip++ {
		for i := 0; i < 4; i++ {
			b.Train(Access{IP: ip, Addr: mem.Addr(0x1000 + i*64), Cycle: uint64(i) * 300})
		}
	}
	if b.rows.Len() > bertiTableSize {
		t.Fatalf("Berti table grew to %d entries (cap %d)", b.rows.Len(), bertiTableSize)
	}
	// A new IP still trains and eventually produces candidates.
	got := feed(b, strideStream(0xFFFF, 0x900000, 1, 200))
	if len(got) == 0 {
		t.Fatal("Berti dead after eviction churn")
	}
}

func TestBertiAgingFadesStaleDeltas(t *testing.T) {
	b := &newBertis(nil, 1)[0]
	// Train delta 5, then switch the IP to delta 1 for a long time; delta 5
	// must fade from the candidate mix.
	ip := uint64(0x77)
	feedOnly := func(stride int64, n int, startLine int64) {
		line := startLine
		for i := 0; i < n; i++ {
			b.Train(Access{IP: ip, Addr: mem.Addr(uint64(line) << mem.LineShift),
				Cycle: uint64(i) * 300})
			line += stride
		}
	}
	feedOnly(5, 300, 0x1000)
	feedOnly(1, 6000, 0x900000>>mem.LineShift)
	// Sample current candidates: the live delta must rank first.
	cands := b.Train(Access{IP: ip, Addr: 0xA00000, Cycle: 10_000_000})
	if len(cands) == 0 {
		t.Fatal("no candidates after retraining")
	}
	top := int64(cands[0].Addr.LineID()) - int64(mem.Addr(0xA00000).LineID())
	if top != 1 {
		t.Fatalf("top delta = %d after aging, want the live delta 1", top)
	}
}

func TestIPCPTableBounded(t *testing.T) {
	p := &newIPCPs(nil, 1)[0]
	for ip := uint64(0); ip < ipcpTableSize*2; ip++ {
		p.Train(Access{IP: ip, Addr: mem.Addr(ip * 64), Cycle: ip})
	}
	if p.ip.Len() > ipcpTableSize {
		t.Fatalf("IPCP table grew to %d (cap %d)", p.ip.Len(), ipcpTableSize)
	}
}

func TestStrideTableBounded(t *testing.T) {
	s := &newStrides(nil, 1)[0]
	for ip := uint64(0); ip < strideTableSize*2; ip++ {
		s.Train(Access{IP: ip, Addr: mem.Addr(ip * 64)})
	}
	if s.table.Len() > strideTableSize {
		t.Fatalf("stride table grew to %d (cap %d)", s.table.Len(), strideTableSize)
	}
}

func TestSPPPageTrackerBounded(t *testing.T) {
	s := &newSPPPPFs(nil, 1)[0]
	for page := uint64(0); page < sppPageMax*3; page++ {
		s.Train(Access{IP: 1, Addr: mem.Addr(page * mem.PageBytes)})
	}
	if s.pages.Len() > sppPageMax {
		t.Fatalf("SPP page tracker grew to %d (cap %d)", s.pages.Len(), sppPageMax)
	}
}

func TestSPPWeakestSlotReplacement(t *testing.T) {
	s := &newSPPPPFs(nil, 1)[0]
	sig := uint16(0x123)
	// Fill the 4 delta slots, then hammer a 5th delta: it must displace the
	// weakest, not be lost.
	for i, d := range []int64{1, 2, 3, 4} {
		for k := 0; k <= i; k++ { // varying strengths
			s.learn(sig, d)
		}
	}
	for k := 0; k < 10; k++ {
		s.learn(sig, 9)
	}
	d, conf := s.lookup(sig)
	if d != 9 {
		t.Fatalf("dominant delta = %d (conf %v), want 9", d, conf)
	}
}

func TestBingoActiveTrackerBounded(t *testing.T) {
	b := &newBingos(nil, 1)[0]
	for r := 0; r < bingoActiveMax*3; r++ {
		b.Train(Access{IP: 1, Addr: mem.Addr(r * 2048)})
	}
	if b.active.Len() > bingoActiveMax {
		t.Fatalf("Bingo active tracker grew to %d (cap %d)", b.active.Len(), bingoActiveMax)
	}
	if b.long.Len() > bingoHistoryMax || b.short.Len() > bingoHistoryMax {
		t.Fatal("Bingo history tables unbounded")
	}
}

func TestCandidatesAreLineAligned(t *testing.T) {
	for _, name := range []string{"berti", "ipcp", "stride", "stream", "spppf", "bingo"} {
		p, _ := New(name)
		for _, c := range feed(p, strideStream(0x66, 0x800000, 1, 400)) {
			if c.Addr != c.Addr.Line() {
				t.Fatalf("%s produced unaligned candidate %#x", name, uint64(c.Addr))
			}
			if c.Addr == 0 {
				t.Fatalf("%s produced null candidate", name)
			}
		}
	}
}

// TestBertiFitIsolation: the Bertis of one array start in regions of one
// slab, each ending at its length, so a Berti that outgrows its region (fit)
// moves to a slab of its own and its neighbour's rows stay as they were.
func TestBertiFitIsolation(t *testing.T) {
	bs := newBertis(nil, 2)
	for i := range bs[1].slab {
		bs[1].slab[i] = 7
	}
	bs[0].fit(bertiInitRows + 1) // doubles to twice the region: the two regions together
	for i := range bs[0].slab {
		bs[0].slab[i] = ^uint64(0)
	}
	if len(bs[1].slab) != bertiInitRows*bertiRowWords {
		t.Fatalf("Berti 1's slab is %d words, want %d", len(bs[1].slab), bertiInitRows*bertiRowWords)
	}
	for i, w := range bs[1].slab {
		if w != 7 {
			t.Fatalf("word %d of Berti 1's slab is %x after Berti 0 grew", i, w)
		}
	}
}

// TestTrainOutputFitsItsArray: at the highest aggressiveness, on streams
// that make every engine emit its deepest output, Train returns at most
// MaxCandidates and allocates nothing — the output array each engine
// carries is as deep as its largest degree.
func TestTrainOutputFitsItsArray(t *testing.T) {
	var stream []Access
	for ip := uint64(1); ip <= 4; ip++ {
		stream = append(stream, strideStream(ip, mem.Addr(ip<<30), 1, 2500)...)
		stream = append(stream, strideStream(ip, mem.Addr(ip<<30+1<<24), 3, 300)...)
	}
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if th, ok := p.(Throttleable); ok {
			th.SetAggressiveness(maxAggressiveness)
		}
		longest := 0
		for _, a := range stream {
			longest = max(longest, len(p.Train(a)))
		}
		i := 0
		allocs := testing.AllocsPerRun(len(stream)-1, func() {
			p.Train(stream[i])
			i++
		})
		t.Logf("%s: up to %d candidates", name, longest)
		// Under clipdebug the tables' checks allocate.
		if longest > MaxCandidates || allocs != 0 && !invariant.Enabled {
			t.Errorf("%s: %d candidates (at most %d) and %.2f allocations a Train", name, longest, MaxCandidates, allocs)
		}
	}
}
