package hermes

import (
	"testing"

	"clip/internal/mem"
)

func TestUntrainedPredictsOnChip(t *testing.T) {
	p := New()
	if p.PredictOffChip(0x42, 0x1000) {
		t.Fatal("untrained predictor probed DRAM")
	}
}

func TestLearnsOffChipIP(t *testing.T) {
	p := New()
	ip := uint64(0x1234)
	for i := 0; i < 50; i++ {
		addr := mem.Addr(0x100000 + i*64)
		pred := p.PredictOffChip(ip, addr)
		p.Train(ip, addr, mem.LevelDRAM, pred)
	}
	hits := 0
	for i := 0; i < 20; i++ {
		if p.PredictOffChip(ip, mem.Addr(0x200000+i*64)) {
			hits++
		}
	}
	if hits < 15 {
		t.Fatalf("off-chip IP predicted only %d/20 after training", hits)
	}
}

func TestLearnsOnChipIP(t *testing.T) {
	p := New()
	ip := uint64(0x5678)
	for i := 0; i < 50; i++ {
		addr := mem.Addr(0x300000 + i%4*64)
		pred := p.PredictOffChip(ip, addr)
		p.Train(ip, addr, mem.LevelL2, pred)
	}
	if p.PredictOffChip(ip, 0x300000) {
		t.Fatal("on-chip IP still predicted off-chip")
	}
}

func TestSeparatesMixedIPs(t *testing.T) {
	p := New()
	offIP, onIP := uint64(0xAAA0), uint64(0xBBB0)
	for i := 0; i < 100; i++ {
		a := mem.Addr(0x400000 + i*64)
		p.Train(offIP, a, mem.LevelDRAM, p.PredictOffChip(offIP, a))
		p.Train(onIP, a, mem.LevelL1, p.PredictOffChip(onIP, a))
	}
	offRight, onRight := 0, 0
	for i := 0; i < 20; i++ {
		a := mem.Addr(0x500000 + i*64)
		if p.PredictOffChip(offIP, a) {
			offRight++
		}
		if !p.PredictOffChip(onIP, a) {
			onRight++
		}
	}
	if offRight < 15 || onRight < 15 {
		t.Fatalf("separation failed: off %d/20, on %d/20", offRight, onRight)
	}
}

func TestStatsAccuracy(t *testing.T) {
	p := New()
	p.Train(1, 0x40, mem.LevelDRAM, true)
	p.Train(1, 0x80, mem.LevelL2, true)
	if acc := p.Stats().Accuracy(); acc != 0.5 {
		t.Fatalf("accuracy %v, want 0.5", acc)
	}
	var empty Stats
	if empty.Accuracy() != 0 {
		t.Fatal("empty accuracy must be 0")
	}
}

// TestOffChipDoesNotCount: OffChip gives PredictOffChip's verdict without
// counting a prediction, so scoring a completed load moves neither
// Predictions nor PredOffChip.
func TestOffChipDoesNotCount(t *testing.T) {
	p := New()
	ip, addr := uint64(0x77), mem.Addr(0x9000)
	for i := 0; i < 8; i++ {
		p.Train(ip, addr, mem.LevelDRAM, p.OffChip(ip, addr))
	}
	if !p.OffChip(ip, addr) {
		t.Fatal("trained off-chip line predicted on-chip")
	}
	if s := *p.Stats(); s.Predictions != 0 || s.PredOffChip != 0 {
		t.Fatalf("OffChip counted predictions: %+v", s)
	}
	if !p.PredictOffChip(ip, addr) || p.PredictOffChip(ip+1, 0x40) {
		t.Fatal("PredictOffChip disagrees with OffChip")
	}
	if s := *p.Stats(); s.Predictions != 2 || s.PredOffChip != 1 {
		t.Fatalf("two counted predictions, one off-chip: got %+v", s)
	}
}
