package cpu

import (
	"testing"

	"clip/internal/mem"
)

// newPerceptron is a predictor with zeroed weights of its own.
func newPerceptron() *Perceptron {
	weights := make([]int8, pcptTables*pcptEntries)
	p := new(Perceptron)
	p.carve(&weights)
	return p
}

func TestPerceptronLearnsAlwaysTaken(t *testing.T) {
	p := newPerceptron()
	ip := uint64(0x401000)
	correct := 0
	for i := 0; i < 2000; i++ {
		pred := p.Predict(ip)
		if pred {
			correct++
		}
		p.Update(true, pred)
	}
	if frac := float64(correct) / 2000; frac < 0.95 {
		t.Fatalf("always-taken accuracy %v < 0.95", frac)
	}
}

func TestPerceptronLearnsAlternating(t *testing.T) {
	p := newPerceptron()
	ip := uint64(0x402000)
	correct := 0
	const warm = 500
	for i := 0; i < 5000; i++ {
		taken := i%2 == 0
		pred := p.Predict(ip)
		if i >= warm && pred == taken {
			correct++
		}
		p.Update(taken, pred)
	}
	if frac := float64(correct) / 4500; frac < 0.9 {
		t.Fatalf("alternating-pattern accuracy %v < 0.9", frac)
	}
}

func TestPerceptronLearnsHistoryCorrelated(t *testing.T) {
	// Outcome of branch B equals the outcome of the previous branch A —
	// only a history-based predictor gets this right.
	p := newPerceptron()
	rng := mem.NewPRNG(3)
	ipA, ipB := uint64(0x403000), uint64(0x403040)
	correct, total := 0, 0
	var lastA bool
	for i := 0; i < 8000; i++ {
		a := rng.Bool(0.5)
		predA := p.Predict(ipA)
		p.Update(a, predA)
		lastA = a

		predB := p.Predict(ipB)
		if i > 2000 {
			total++
			if predB == lastA {
				correct++
			}
		}
		p.Update(lastA, predB)
	}
	if frac := float64(correct) / float64(total); frac < 0.85 {
		t.Fatalf("history-correlated accuracy %v < 0.85", frac)
	}
}

func TestPerceptronHistoryShift(t *testing.T) {
	p := newPerceptron()
	pred := p.Predict(1)
	p.Update(true, pred)
	pred = p.Predict(1)
	p.Update(false, pred)
	if p.history&0b11 != 0b10 {
		t.Fatalf("history low bits = %b, want 10", p.history&0b11)
	}
}

func TestPerceptronWeightsSaturate(t *testing.T) {
	p := newPerceptron()
	ip := uint64(0x404000)
	for i := 0; i < 100000; i++ {
		pred := p.Predict(ip)
		p.Update(true, pred)
	}
	for tbl := 0; tbl < pcptTables; tbl++ {
		for _, w := range p.table(tbl) {
			if int(w) > pcptWeightMax || int(w) < pcptWeightMin {
				t.Fatalf("weight %d out of bounds", w)
			}
		}
	}
}
