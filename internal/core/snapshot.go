package core

import "clip/internal/snapshot"

// CLIP checkpointing: both stages' tables, the utility-buffer CAM, the
// exploration-window state, the mirrored history registers and the
// observation map all serialize; cfg and the counter bounds are rebuilt by
// construction.

// State walks the CLIP instance; loading needs an identically-configured
// receiver.
func (c *CLIP) State(s *snapshot.Coder) {
	if !s.Fixed("core: filter entries", len(c.filter)) {
		return
	}
	for i := range c.filter {
		e := &c.filter[i]
		s.Bool(&e.valid)
		s.U8(&e.tag)
		s.U8(&e.critCount)
		s.U8(&e.hitCount)
		s.U8(&e.issueCount)
		s.Bool(&e.critAcc)
		s.U8(&e.explored)
	}
	if !s.Fixed("core: predictor entries", len(c.pred)) {
		return
	}
	for i := range c.pred {
		e := &c.pred[i]
		s.Bool(&e.valid)
		s.U8(&e.tag)
		s.U8(&e.counter)
		s.Bool(&e.nru)
	}

	c.utilValid.State(s)
	s.U64s(c.utilLine)
	s.U64s(c.utilTrig)
	s.Int(&c.utilPos)
	if s.Loading() && (c.utilPos < 0 || c.utilPos >= len(c.utilLine)) {
		s.Corrupt("core: utility cursor %d out of range", c.utilPos)
		return
	}

	s.U64(&c.windowMisses)
	s.U64(&c.windowAccesses)
	s.U64(&c.windowStart)
	for i := range snapshot.Slice(s, "core: APC history", &c.apcHistory, c.cfg.APCWindows+1, 8) {
		s.F64(&c.apcHistory[i])
	}

	s.U32(&c.curBranchHist)
	s.U32(&c.curCritHist)

	c.ipSeen.State(s, func(o *ipObs) {
		s.U64(&o.instances)
		s.U64(&o.critical)
		s.Bool(&o.selected)
	})

	s.U64(&c.stats.Allowed)
	s.U64(&c.stats.Explored)
	for i := range c.stats.Dropped {
		s.U64(&c.stats.Dropped[i])
	}
	s.U64(&c.stats.PhaseResets)
	s.U64(&c.stats.Windows)
	s.U64(&c.stats.CritInserts)
	s.U64(&c.stats.UtilityHits)
	s.U64(&c.stats.PredTrainInc)
	s.U64(&c.stats.PredTrainDec)
	s.U64(&c.stats.PredScore.TruePos)
	s.U64(&c.stats.PredScore.FalsePos)
	s.U64(&c.stats.PredScore.FalseNeg)
	s.U64(&c.stats.PredScore.TrueNeg)
}
