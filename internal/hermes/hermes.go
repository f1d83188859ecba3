// Package hermes implements the off-chip load predictor of Hermes (Bera et
// al., MICRO'22): a multi-feature perceptron that predicts, at L1-miss time,
// whether a load will be served by DRAM. Predicted off-chip loads are started
// toward the memory controller immediately, hiding the on-chip cache-walk
// latency.
//
// The paper's criticism, which the simulator reproduces: Hermes accelerates
// only true DRAM loads and does not reduce DRAM traffic (mispredicted probes
// even add some), so under constrained bandwidth — where most ROB stalls come
// from L2/LLC hits delayed by queueing — it helps less than CLIP.
package hermes

import (
	"clip/internal/mem"
)

// Predictor is the perceptron-based off-chip predictor (POPET in the paper).
type Predictor struct {
	tables    [hermesTables][hermesEntries]int8
	threshold int

	stats Stats
}

// Stats counts prediction outcomes.
type Stats struct {
	Predictions uint64
	PredOffChip uint64
	TruePos     uint64 // predicted off-chip, was off-chip
	FalsePos    uint64 // predicted off-chip, was on-chip (wasted probe)
	FalseNeg    uint64
}

const (
	hermesTables  = 4
	hermesEntries = 1024
	weightMax     = 31
	weightMin     = -32
)

// New returns a predictor with zeroed weights (predicts on-chip until
// trained; the activation threshold biases against probing): the one-member
// case of NewArray.
func New() *Predictor { return &NewArray(nil, 1)[0] }

// NewArray returns n predictors with zeroed weights, one per core, as one
// array taken from a (mem.Make).
func NewArray(a *mem.Arena, n int) []Predictor {
	ps := mem.Make[Predictor](a, n)
	for i := range ps {
		ps[i].threshold = 2
	}
	return ps
}

// Stats returns live counters.
func (p *Predictor) Stats() *Stats { return &p.stats }

// features hashes the perceptron input features: IP, IP^page, line offset
// within page, and recent behaviour is captured through training.
func (p *Predictor) features(ip uint64, addr mem.Addr) [hermesTables]uint32 {
	return [hermesTables]uint32{
		uint32(mem.Mix64(ip) % hermesEntries),
		uint32(mem.Mix64(ip^addr.PageID()<<5) % hermesEntries),
		uint32(mem.Mix64(uint64(addr.PageOffsetLine())<<32^ip>>2) % hermesEntries),
		uint32(mem.Mix64(addr.LineID()) % hermesEntries),
	}
}

// PredictOffChip returns true when the load at (ip, addr) is predicted to be
// served by DRAM, and counts the decision.
func (p *Predictor) PredictOffChip(ip uint64, addr mem.Addr) bool {
	off := p.OffChip(ip, addr)
	p.stats.Predictions++
	if off {
		p.stats.PredOffChip++
	}
	return off
}

// OffChip is the perceptron's verdict on (ip, addr) without counting it: the
// re-evaluation that scores a completed load in Train.
func (p *Predictor) OffChip(ip uint64, addr mem.Addr) bool {
	idx := p.features(ip, addr)
	sum := 0
	for t := 0; t < hermesTables; t++ {
		sum += int(p.tables[t][idx[t]])
	}
	return sum >= p.threshold
}

// Train updates the perceptron with the observed service level and scores
// the previous prediction.
func (p *Predictor) Train(ip uint64, addr mem.Addr, servedBy mem.Level, predicted bool) {
	offChip := servedBy == mem.LevelDRAM
	switch {
	case predicted && offChip:
		p.stats.TruePos++
	case predicted && !offChip:
		p.stats.FalsePos++
	case !predicted && offChip:
		p.stats.FalseNeg++
	}
	idx := p.features(ip, addr)
	for t := 0; t < hermesTables; t++ {
		w := p.tables[t][idx[t]]
		if offChip && w < weightMax {
			w++
		} else if !offChip && w > weightMin {
			w--
		}
		p.tables[t][idx[t]] = w
	}
}

// Accuracy returns the fraction of off-chip predictions that were correct.
func (s *Stats) Accuracy() float64 {
	d := s.TruePos + s.FalsePos
	if d == 0 {
		return 0
	}
	return float64(s.TruePos) / float64(d)
}
