package criticality

import (
	"fmt"

	"clip/internal/snapshot"
)

// Predictor checkpointing: each prior predictor serializes its confidence
// table; SavePredictor writes a kind byte so a snapshot cannot restore into
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

// SavePredictor serializes any predictor built by New.
func SavePredictor(w *snapshot.Writer, p Predictor) {
	kind, ok := kindOf(p)
	if !ok {
		w.Fail(fmt.Errorf("criticality: cannot snapshot predictor type %T", p))
		return
	}
	w.U8(kind)
	switch pr := p.(type) {
	case *catchPred:
		pr.conf.Save(w, func(v *int) { w.Int(*v) })
		w.Int(pr.recentLen)
		for i := 0; i < pr.recentLen; i++ {
			w.U64(pr.recentAt(i))
		}
	case *fpPred:
		pr.stall.Save(w, func(v *uint64) { w.U64(*v) })
		w.U64(pr.total)
		w.U64(pr.events)
	case *fvpPred:
		pr.conf.Save(w, func(v *int) { w.Int(*v) })
	case *cbpPred:
		pr.t.Save(w, func(v *cbpEntry) {
			w.U64(v.maxSeen)
			w.Bool(v.flagged)
		})
	case *roboPred:
		pr.t.Save(w, func(v *roboEntry) {
			w.Int(v.stalls)
			w.Bool(v.flagged)
		})
	case *crispPred:
		pr.t.Save(w, func(v *crispEntry) {
			w.U32(v.llcMiss)
			w.U32(v.samples)
			w.U64(v.mlpSum)
		})
	}
}

// LoadPredictor restores a predictor saved by SavePredictor into a receiver
// of the same kind.
func LoadPredictor(r *snapshot.Reader, p Predictor) {
	want, ok := kindOf(p)
	if !ok {
		r.Fail(fmt.Errorf("criticality: cannot restore into predictor type %T", p))
		return
	}
	kind := r.U8()
	if r.Err() != nil {
		return
	}
	if kind != want {
		r.Fail(fmt.Errorf("criticality: snapshot holds predictor kind %d, receiver is %s: %w",
			kind, p.Name(), snapshot.ErrCorrupt))
		return
	}
	switch pr := p.(type) {
	case *catchPred:
		pr.conf.Load(r, func(v *int) { *v = r.Int() })
		n := r.Int()
		if r.Err() != nil {
			return
		}
		if n < 0 || n > catchWindow {
			r.Fail(fmt.Errorf("criticality: catch window %d entries: %w", n, snapshot.ErrCorrupt))
			return
		}
		pr.recentHead, pr.recentLen = 0, n
		for i := 0; i < n; i++ {
			pr.recent[i] = r.U64()
		}
	case *fpPred:
		pr.stall.Load(r, func(v *uint64) { *v = r.U64() })
		pr.total = r.U64()
		pr.events = r.U64()
	case *fvpPred:
		pr.conf.Load(r, func(v *int) { *v = r.Int() })
	case *cbpPred:
		pr.t.Load(r, func(v *cbpEntry) {
			v.maxSeen = r.U64()
			v.flagged = r.Bool()
		})
	case *roboPred:
		pr.t.Load(r, func(v *roboEntry) {
			v.stalls = r.Int()
			v.flagged = r.Bool()
		})
	case *crispPred:
		pr.t.Load(r, func(v *crispEntry) {
			v.llcMiss = r.U32()
			v.samples = r.U32()
			v.mlpSum = r.U64()
		})
	}
}

// Save serializes the confusion matrix.
func (s *Score) Save(w *snapshot.Writer) {
	w.U64(s.TruePos)
	w.U64(s.FalsePos)
	w.U64(s.FalseNeg)
	w.U64(s.TrueNeg)
}

// Load restores the confusion matrix.
func (s *Score) Load(r *snapshot.Reader) {
	s.TruePos = r.U64()
	s.FalsePos = r.U64()
	s.FalseNeg = r.U64()
	s.TrueNeg = r.U64()
}
