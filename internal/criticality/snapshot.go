package criticality

import (
	"fmt"

	"clip/internal/snapshot"
)

// Predictor checkpointing: each prior predictor serializes its confidence
// table; State writes a kind byte so a snapshot cannot restore into
// a different predictor.

const (
	critKindCATCH uint8 = iota
	critKindFP
	critKindFVP
	critKindCBP
	critKindROBO
	critKindCRISP
)

func kindOf(p Predictor) (uint8, bool) {
	switch p.(type) {
	case *catchPred:
		return critKindCATCH, true
	case *fpPred:
		return critKindFP, true
	case *fvpPred:
		return critKindFVP, true
	case *cbpPred:
		return critKindCBP, true
	case *roboPred:
		return critKindROBO, true
	case *crispPred:
		return critKindCRISP, true
	}
	return 0, false
}

// State walks any predictor built by New, behind its kind byte.
func State(s *snapshot.Coder, p Predictor) {
	kind, ok := kindOf(p)
	if !ok {
		s.Fail(fmt.Errorf("criticality: cannot snapshot predictor type %T", p))
		return
	}
	if !s.Kind("criticality: predictor", kind) {
		return
	}
	switch pr := p.(type) {
	case *catchPred:
		pr.conf.State(s, s.Int)
		// The window goes out oldest first and comes back at the front of
		// the ring.
		var win [catchWindow]uint64
		for i := 0; i < pr.recentLen; i++ {
			win[i] = pr.recentAt(i)
		}
		n := s.Len("criticality: catch window", pr.recentLen, catchWindow, 8)
		for i := 0; i < n; i++ {
			s.U64(&win[i])
		}
		if s.Loading() {
			pr.recent, pr.recentHead, pr.recentLen = win, 0, n
		}
	case *fpPred:
		pr.stall.State(s, s.U64)
		s.U64(&pr.total)
		s.U64(&pr.events)
	case *fvpPred:
		pr.conf.State(s, s.Int)
	case *cbpPred:
		pr.t.State(s, func(v *cbpEntry) {
			s.U64(&v.maxSeen)
			s.Bool(&v.flagged)
		})
	case *roboPred:
		pr.t.State(s, func(v *roboEntry) {
			s.Int(&v.stalls)
			s.Bool(&v.flagged)
		})
	case *crispPred:
		pr.t.State(s, func(v *crispEntry) {
			s.U32(&v.llcMiss)
			s.U32(&v.samples)
			s.U64(&v.mlpSum)
		})
	}
}

// State walks the confusion matrix.
func (sc *Score) State(s *snapshot.Coder) {
	s.U64(&sc.TruePos)
	s.U64(&sc.FalsePos)
	s.U64(&sc.FalseNeg)
	s.U64(&sc.TrueNeg)
}
