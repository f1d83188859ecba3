package hermes

import "clip/internal/snapshot"

// State walks the perceptron weights and counters (the activation threshold
// is a construction-time constant).
func (p *Predictor) State(s *snapshot.Coder) {
	for t := range p.tables {
		s.I8s(p.tables[t][:])
	}
	s.U64(&p.stats.Predictions)
	s.U64(&p.stats.PredOffChip)
	s.U64(&p.stats.TruePos)
	s.U64(&p.stats.FalsePos)
	s.U64(&p.stats.FalseNeg)
}
