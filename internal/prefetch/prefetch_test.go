package prefetch

import (
	"testing"

	"clip/internal/mem"
)

// feed drives a prefetcher with a synthetic access stream and returns all
// candidates produced.
func feed(p Prefetcher, accesses []Access) []Candidate {
	var out []Candidate
	for _, a := range accesses {
		out = append(out, p.Train(a)...)
	}
	return out
}

// strideStream builds n accesses from one IP walking lines at the stride,
// spaced 200 cycles apart (comfortably timely for Berti).
func strideStream(ip uint64, base mem.Addr, strideLines int64, n int) []Access {
	var as []Access
	line := int64(base.LineID())
	for i := 0; i < n; i++ {
		as = append(as, Access{
			IP:    ip,
			Addr:  mem.Addr(uint64(line) << mem.LineShift),
			Cycle: uint64(i) * 200,
		})
		line += strideLines
	}
	return as
}

// hitRate measures how many of the stream's future lines were prefetched
// before they were accessed.
func coverageOf(p Prefetcher, accesses []Access) float64 {
	prefetched := map[uint64]bool{}
	covered, total := 0, 0
	for i, a := range accesses {
		if i > 0 {
			total++
			if prefetched[a.Addr.LineID()] {
				covered++
			}
		}
		for _, c := range p.Train(a) {
			prefetched[c.Addr.LineID()] = true
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Name() = %q, want %q", p.Name(), name)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

func TestNoneNeverPrefetches(t *testing.T) {
	if got := feed(None{}, strideStream(1, 0x10000, 1, 100)); len(got) != 0 {
		t.Fatalf("None produced %d candidates", len(got))
	}
}

func TestAggressivenessClamp(t *testing.T) {
	var a aggr
	if a.Aggressiveness() != 3 {
		t.Fatal("default aggressiveness must be 3")
	}
	a.SetAggressiveness(99)
	if a.Aggressiveness() != 5 {
		t.Fatal("not clamped to 5")
	}
	a.SetAggressiveness(-1)
	if a.Aggressiveness() != 1 {
		t.Fatal("not clamped to 1")
	}
}

func TestEveryPrefetcherCoversUnitStride(t *testing.T) {
	for _, name := range []string{"berti", "ipcp", "stride", "stream", "spppf", "bingo"} {
		p, _ := New(name)
		cov := coverageOf(p, strideStream(0xAA, 0x100000, 1, 600))
		min := 0.5
		if name == "bingo" {
			// Bingo only replays on region *re*-visits; a single pass over
			// fresh regions legitimately yields low coverage.
			min = 0.0
		}
		if cov < min {
			t.Errorf("%s unit-stride coverage %.2f < %.2f", name, cov, min)
		}
	}
}

func TestBertiLearnsNonUnitDelta(t *testing.T) {
	b := &newBertis(nil, 1)[0]
	cov := coverageOf(b, strideStream(0xBB, 0x200000, 7, 600))
	if cov < 0.5 {
		t.Fatalf("Berti delta-7 coverage %.2f < 0.5", cov)
	}
}

func TestBertiCandidatesCarryWatermarkFillLevels(t *testing.T) {
	b := &newBertis(nil, 1)[0]
	cands := feed(b, strideStream(0xCC, 0x300000, 1, 200))
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	l1 := 0
	for _, c := range cands {
		if c.FillLevel == mem.LevelL1 {
			l1++
		}
		if c.TriggerIP != 0xCC {
			t.Fatal("trigger IP not propagated")
		}
		if c.Confidence <= 0 {
			t.Fatal("zero confidence")
		}
	}
	if l1 == 0 {
		t.Fatal("high-coverage delta never earned an L1 fill")
	}
}

func TestBertiTimelinessExcludesRecentDeltas(t *testing.T) {
	b := &newBertis(nil, 1)[0]
	// Accesses 1 cycle apart: nothing is timely, so no candidates.
	var as []Access
	for i := 0; i < 100; i++ {
		as = append(as, Access{IP: 5, Addr: mem.Addr(0x40 * (i + 1)), Cycle: uint64(i)})
	}
	if got := feed(b, as); len(got) != 0 {
		t.Fatalf("non-timely deltas still prefetched: %d", len(got))
	}
}

func TestBertiIgnoresRandomStream(t *testing.T) {
	b := &newBertis(nil, 1)[0]
	rng := mem.NewPRNG(1)
	var as []Access
	for i := 0; i < 500; i++ {
		as = append(as, Access{IP: 9,
			Addr:  mem.Addr(rng.Uint64() % (1 << 30)).Line(),
			Cycle: uint64(i) * 200})
	}
	cands := feed(b, as)
	if len(cands) > 100 {
		t.Fatalf("Berti sprayed %d prefetches at random traffic", len(cands))
	}
}

func TestBertiObserveMissLatency(t *testing.T) {
	b := &newBertis(nil, 1)[0]
	before := b.latencyEst
	for i := 0; i < 100; i++ {
		b.ObserveMissLatency(400)
	}
	if b.latencyEst <= before {
		t.Fatal("latency estimate did not rise")
	}
	for i := 0; i < 1000; i++ {
		b.ObserveMissLatency(1)
	}
	if b.latencyEst < 1 || b.latencyEst > 10 {
		t.Fatalf("latency estimate %d did not track down", b.latencyEst)
	}
}

func TestIPCPConstantStrideClass(t *testing.T) {
	p := &newIPCPs(nil, 1)[0]
	cands := feed(p, strideStream(0xDD, 0x400000, 2, 50))
	if len(cands) == 0 {
		t.Fatal("CS class never fired")
	}
	// All CS candidates should extend the stride.
	for _, c := range cands[len(cands)-3:] {
		if (c.Addr.LineID()-0x400000>>6)%2 != 0 {
			t.Fatalf("candidate %#x off-stride", uint64(c.Addr))
		}
	}
}

func TestIPCPComplexPattern(t *testing.T) {
	p := &newIPCPs(nil, 1)[0]
	// Repeating delta sequence 1,3,1,3... is not a constant stride.
	var as []Access
	line := int64(0x8000)
	deltas := []int64{1, 3}
	for i := 0; i < 400; i++ {
		as = append(as, Access{IP: 7, Addr: mem.Addr(uint64(line) << mem.LineShift),
			Cycle: uint64(i) * 100})
		line += deltas[i%2]
	}
	cands := feed(p, as)
	if len(cands) == 0 {
		t.Fatal("CPLX class never fired on repeating delta pattern")
	}
}

func TestIPCPGlobalStream(t *testing.T) {
	p := &newIPCPs(nil, 1)[0]
	// Many IPs touch consecutive lines: no per-IP stride, but a global
	// stream.
	var as []Access
	for i := 0; i < 200; i++ {
		as = append(as, Access{IP: uint64(100 + i%17), // rotating IPs
			Addr:  mem.Addr(uint64(0x900000+i*64) << 0),
			Cycle: uint64(i) * 50})
	}
	cands := feed(p, as)
	if len(cands) == 0 {
		t.Fatal("GS class never fired on multi-IP stream")
	}
}

func TestBingoReplaysFootprintOnRecurrence(t *testing.T) {
	b := &newBingos(nil, 1)[0]
	// Visit region A with a distinctive footprint, visit many other regions
	// to force commit, then re-trigger region A.
	touch := func(base mem.Addr, offsets []int, startCycle uint64) []Access {
		var as []Access
		for i, o := range offsets {
			as = append(as, Access{IP: 0xEE,
				Addr:  base + mem.Addr(o*mem.LineBytes),
				Cycle: startCycle + uint64(i)})
		}
		return as
	}
	base := mem.Addr(0xA00000)
	footprint := []int{0, 3, 5, 9, 12}
	feed(b, touch(base, footprint, 0))
	// Flood with other regions to evict region A from the active tracker.
	var flood []Access
	for r := 1; r <= bingoActiveMax+4; r++ {
		flood = append(flood, touch(base+mem.Addr(r*2048), []int{0, 1}, uint64(1000+r*10))...)
	}
	feed(b, flood)
	// Re-trigger: same IP, same address (long event).
	cands := b.Train(Access{IP: 0xEE, Addr: base, Cycle: 99999})
	if len(cands) == 0 {
		t.Fatal("Bingo did not replay footprint on long-event recurrence")
	}
	want := map[uint64]bool{}
	for _, o := range footprint[1:] {
		want[(base + mem.Addr(o*mem.LineBytes)).LineID()] = true
	}
	for _, c := range cands {
		if !want[c.Addr.LineID()] {
			t.Fatalf("candidate %#x outside recorded footprint", uint64(c.Addr))
		}
	}
}

func TestBingoShortEventFallback(t *testing.T) {
	b := &newBingos(nil, 1)[0]
	base := mem.Addr(0xB00000)
	// Record with trigger at offset 2.
	var as []Access
	for i, o := range []int{2, 4, 6} {
		as = append(as, Access{IP: 0xFF, Addr: base + mem.Addr(o*mem.LineBytes),
			Cycle: uint64(i)})
	}
	feed(b, as)
	var flood []Access
	for r := 1; r <= bingoActiveMax+4; r++ {
		flood = append(flood, Access{IP: 1, Addr: base + mem.Addr(r*2048), Cycle: uint64(100 + r)},
			Access{IP: 1, Addr: base + mem.Addr(r*2048+64), Cycle: uint64(100 + r)})
	}
	feed(b, flood)
	// Different region, same IP and same offset (2): short event.
	cands := b.Train(Access{IP: 0xFF, Addr: base + 1<<20 + mem.Addr(2*mem.LineBytes), Cycle: 5000})
	if len(cands) == 0 {
		t.Fatal("Bingo short event did not fire")
	}
}

func TestSPPLookaheadDepth(t *testing.T) {
	s := &newSPPPPFs(nil, 1)[0]
	stream := strideStream(0x11, 0xC00000, 1, 300)
	maxAhead := int64(0)
	total := 0
	for _, a := range stream {
		trigger := int64(a.Addr.LineID())
		for _, c := range s.Train(a) {
			total++
			if ahead := int64(c.Addr.LineID()) - trigger; ahead > maxAhead {
				maxAhead = ahead
			}
		}
	}
	if total == 0 {
		t.Fatal("SPP produced nothing on unit stride")
	}
	// The signature walk should run several deltas ahead of the trigger.
	if maxAhead < 3 {
		t.Fatalf("lookahead reached only %d lines ahead", maxAhead)
	}
}

func TestPPFFeedbackSuppresses(t *testing.T) {
	s := &newSPPPPFs(nil, 1)[0]
	cand := Candidate{Addr: 0xD00000, TriggerIP: 0x22}
	// Hammer negative feedback.
	for i := 0; i < 64; i++ {
		s.Feedback(cand, false)
	}
	ok, _ := s.filter.predict(cand, 0)
	if ok {
		t.Fatal("PPF still approves after heavy negative feedback")
	}
	for i := 0; i < 128; i++ {
		s.Feedback(cand, true)
	}
	ok, _ = s.filter.predict(cand, 0)
	if !ok {
		t.Fatal("PPF cannot recover after positive feedback")
	}
}

func TestStrideConfidenceGate(t *testing.T) {
	s := &newStrides(nil, 1)[0]
	// A single observed delta is not enough for confidence 2.
	early := feed(s, strideStream(0x33, 0xE00000, 1, 2))
	if len(early) != 0 {
		t.Fatalf("stride fired with low confidence: %d", len(early))
	}
	later := feed(s, strideStream(0x33, 0xE00000+2*64, 1, 10))
	if len(later) == 0 {
		t.Fatal("stride never fired")
	}
}

func TestStreamDirectionDetection(t *testing.T) {
	s := new(Stream)
	// Backward stream within a page.
	var as []Access
	for i := 0; i < 30; i++ {
		as = append(as, Access{IP: 0x44,
			Addr: mem.Addr(0xF0000 + (60-i)*64), Cycle: uint64(i) * 10})
	}
	cands := feed(s, as)
	if len(cands) == 0 {
		t.Fatal("backward stream not detected")
	}
	last := as[len(as)-1].Addr.LineID()
	for _, c := range cands[len(cands)-2:] {
		if c.Addr.LineID() >= last {
			t.Fatalf("candidate %#x not in backward direction", uint64(c.Addr))
		}
	}
}

func TestThrottleableChangesVolume(t *testing.T) {
	for _, name := range []string{"berti", "ipcp", "stride", "stream"} {
		lo, _ := New(name)
		hi, _ := New(name)
		lo.(Throttleable).SetAggressiveness(1)
		hi.(Throttleable).SetAggressiveness(5)
		nLo := len(feed(lo, strideStream(0x55, 0x1000000, 1, 400)))
		nHi := len(feed(hi, strideStream(0x55, 0x1000000, 1, 400)))
		if nHi <= nLo {
			t.Errorf("%s: aggressiveness 5 (%d) not more than 1 (%d)", name, nHi, nLo)
		}
	}
}
