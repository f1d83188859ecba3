package criticality

import (
	"bytes"
	"reflect"
	"testing"

	"clip/internal/cpu"
	"clip/internal/mem"
	"clip/internal/snapshot"
)

func loadEv(ip uint64, level mem.Level, stalled bool, stallCycles uint64, mlp, robOcc int) *cpu.LoadEvent {
	return &cpu.LoadEvent{
		IP: ip, Addr: 0x1000, ServedBy: level, StalledHead: stalled,
		AtHead: stalled, HeadStallCycles: stallCycles, MLPAtComplete: mlp,
		ROBOccupancy: robOcc, Latency: 200,
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, 512)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Name %q != %q", p.Name(), name)
		}
		// Untrained predictors should not claim criticality.
		if p.Critical(0x42, 0) {
			t.Errorf("%s predicts critical with no training", name)
		}
	}
	if _, err := New("nope", 512); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

func TestIsCriticalEvent(t *testing.T) {
	if IsCriticalEvent(loadEv(1, mem.LevelL1, true, 10, 1, 400)) {
		t.Fatal("L1-served load cannot be critical")
	}
	if !IsCriticalEvent(loadEv(1, mem.LevelL2, true, 10, 1, 400)) {
		t.Fatal("stalling L2-served load must be critical")
	}
	if IsCriticalEvent(loadEv(1, mem.LevelDRAM, false, 0, 1, 400)) {
		t.Fatal("non-stalling DRAM load must not be critical")
	}
}

func TestScoreMetrics(t *testing.T) {
	var s Score
	s.Update(true, true)
	s.Update(true, false)
	s.Update(false, true)
	s.Update(false, false)
	if s.Accuracy() != 0.5 || s.Coverage() != 0.5 || s.Events() != 4 {
		t.Fatalf("score: %+v acc=%v cov=%v", s, s.Accuracy(), s.Coverage())
	}
}

func TestCBPLearnsStallingIP(t *testing.T) {
	p, _ := New("cbp", 512)
	p.OnLoadComplete(loadEv(0xA, mem.LevelDRAM, true, 50, 1, 500))
	if !p.Critical(0xA, 0) {
		t.Fatal("CBP missed a 50-cycle staller")
	}
	if p.Critical(0xB, 0) {
		t.Fatal("CBP flagged an unseen IP")
	}
}

func TestCBPIsStatic(t *testing.T) {
	// The documented limitation: once critical, always critical — even after
	// many non-stalling recurrences.
	p, _ := New("cbp", 512)
	p.OnLoadComplete(loadEv(0xA, mem.LevelDRAM, true, 50, 1, 500))
	for i := 0; i < 1000; i++ {
		p.OnLoadComplete(loadEv(0xA, mem.LevelL1, false, 0, 8, 100))
	}
	if !p.Critical(0xA, 0) {
		t.Fatal("CBP should remain static-critical (its documented flaw)")
	}
}

func TestROBORequiresHighOccupancy(t *testing.T) {
	p, _ := New("robo", 512)
	// Stalls at low occupancy: not flagged.
	for i := 0; i < 5; i++ {
		p.OnLoadComplete(loadEv(0xC, mem.LevelDRAM, true, 50, 1, 100))
	}
	if p.Critical(0xC, 0) {
		t.Fatal("ROBO flagged a low-occupancy stall")
	}
	for i := 0; i < 2; i++ {
		p.OnLoadComplete(loadEv(0xD, mem.LevelDRAM, true, 50, 1, 480))
	}
	if !p.Critical(0xD, 0) {
		t.Fatal("ROBO missed a high-occupancy staller")
	}
}

func TestCRISPOnlySeesLLCMisses(t *testing.T) {
	p, _ := New("crisp", 512)
	// An IP that stalls plenty from L2 hits — CRISP's blind spot.
	for i := 0; i < 100; i++ {
		p.OnLoadComplete(loadEv(0xE, mem.LevelL2, true, 30, 1, 500))
	}
	if p.Critical(0xE, 0) {
		t.Fatal("CRISP should ignore L2-hit stallers (its documented gap)")
	}
	// A DRAM-missing low-MLP IP is CRISP's target.
	for i := 0; i < 100; i++ {
		p.OnLoadComplete(loadEv(0xF, mem.LevelDRAM, true, 30, 1, 500))
	}
	if !p.Critical(0xF, 0) {
		t.Fatal("CRISP missed a DRAM-missing low-MLP load")
	}
}

func TestCRISPMLPGate(t *testing.T) {
	p, _ := New("crisp", 512)
	// High MLP: misses are overlapped, not critical slices.
	for i := 0; i < 100; i++ {
		p.OnLoadComplete(loadEv(0x10, mem.LevelDRAM, true, 30, 16, 500))
	}
	if p.Critical(0x10, 0) {
		t.Fatal("CRISP flagged a high-MLP IP")
	}
}

func TestFPTracksStallHeavyIPs(t *testing.T) {
	p, _ := New("fp", 512)
	for i := 0; i < 50; i++ {
		p.OnRetire(&cpu.RetireEvent{IP: 0x11, IsLoad: true, StallCycles: 100,
			ServedBy: mem.LevelDRAM})
		p.OnRetire(&cpu.RetireEvent{IP: 0x12, IsLoad: true, StallCycles: 0,
			ServedBy: mem.LevelL1})
	}
	if !p.Critical(0x11, 0) {
		t.Fatal("FP missed the dominant staller")
	}
	if p.Critical(0x12, 0) {
		t.Fatal("FP flagged a zero-stall IP")
	}
}

func TestFVPOverTags(t *testing.T) {
	p, _ := New("fvp", 512)
	// A single modest-latency completion is enough — the documented
	// excessive tagging.
	p.OnLoadComplete(loadEv(0x13, mem.LevelL2, false, 0, 4, 200))
	if !p.Critical(0x13, 0) {
		t.Fatal("FVP should tag loads aggressively")
	}
}

func TestCATCHFlagsNeighbourhood(t *testing.T) {
	p, _ := New("catch", 512)
	// Retire a window of loads, then one stalls: neighbours get flagged too.
	for _, ip := range []uint64{0x20, 0x21, 0x22} {
		p.OnRetire(&cpu.RetireEvent{IP: ip, IsLoad: true, ServedBy: mem.LevelL2})
	}
	p.OnLoadComplete(loadEv(0x23, mem.LevelDRAM, true, 80, 1, 500))
	p.OnLoadComplete(loadEv(0x23, mem.LevelDRAM, true, 80, 1, 500))
	if !p.Critical(0x23, 0) {
		t.Fatal("CATCH missed the actual staller")
	}
	// The overlapped neighbours got swept in (MLP blindness).
	flagged := 0
	for _, ip := range []uint64{0x20, 0x21, 0x22} {
		if p.Critical(ip, 0) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("CATCH should over-predict the stall neighbourhood")
	}
}

// Simulated criticality pattern: IP 0xAA is dynamically critical — only
// stalls when the "branch" alternates. IP-granular predictors cannot track
// this; their accuracy on the pattern is bounded by the duty cycle.
func TestIPPredictorsMissDynamicCriticality(t *testing.T) {
	for _, name := range []string{"catch", "fvp", "cbp", "robo"} {
		p, _ := New(name, 512)
		var score Score
		for i := 0; i < 4000; i++ {
			critical := i%2 == 0 // half the instances stall
			var ev *cpu.LoadEvent
			if critical {
				ev = loadEv(0xAA, mem.LevelDRAM, true, 40, 1, 490)
			} else {
				ev = loadEv(0xAA, mem.LevelL1, false, 0, 8, 100)
			}
			pred := p.Critical(0xAA, ev.Addr)
			score.Update(pred, IsCriticalEvent(ev))
			p.OnLoadComplete(ev)
			p.OnRetire(&cpu.RetireEvent{IP: 0xAA, IsLoad: true,
				ServedBy: ev.ServedBy, StallCycles: ev.HeadStallCycles})
		}
		// Once warmed, these predictors say "critical" every time; accuracy
		// collapses toward the 50% duty cycle.
		if acc := score.Accuracy(); acc > 0.75 {
			t.Errorf("%s accuracy %.2f on dynamic pattern — expected the IP-granularity ceiling (~0.5)", name, acc)
		}
		if cov := score.Coverage(); cov < 0.5 {
			t.Errorf("%s coverage %.2f unexpectedly low", name, cov)
		}
	}
}

// TestCATCHWindowIsAFIFOOfEight pins the DDG window's ring against the
// append-and-reslice queue it replaced: after any number of retired loads the
// window walks oldest to newest over the last eight IPs — the order is
// observable, bumps feed a FIFO table — its encoded form is the plain
// length-prefixed list, a restored window continues identically, and retiring
// a load allocates nothing.
func TestCATCHWindowIsAFIFOOfEight(t *testing.T) {
	c := &newCATCHs(nil, 1)[0]
	var ref []uint64
	encode := func(p *catchPred) []byte {
		w := snapshot.NewSaver(0)
		State(w, p)
		b, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for i := 0; i < 40; i++ {
		ip := uint64(0x1000 + i*4)
		c.OnRetire(&cpu.RetireEvent{IP: ip, IsLoad: true})
		ref = append(ref, ip)
		if len(ref) > catchWindow {
			ref = ref[1:]
		}
		var got []uint64
		for j := 0; j < c.recentLen; j++ {
			got = append(got, c.recentAt(j))
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("after %d loads the window walks %x, want %x", i+1, got, ref)
		}
		// A fresh predictor restored from the image re-encodes to the same
		// bytes and tracks the original from there on.
		img := encode(c)
		r, err := snapshot.NewLoader(img)
		if err != nil {
			t.Fatal(err)
		}
		d := &newCATCHs(nil, 1)[0]
		State(r, d)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(d), img) {
			t.Fatalf("after %d loads: restored window re-encodes differently", i+1)
		}
		if i == 20 {
			c = d // carry on in the restored copy
		}
	}
	ev := &cpu.RetireEvent{IP: 0x42, IsLoad: true}
	if n := testing.AllocsPerRun(100, func() { c.OnRetire(ev) }); n != 0 {
		t.Fatalf("OnRetire allocates %.1f times per retired load", n)
	}
}
