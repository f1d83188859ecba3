package core

import (
	"clip/internal/invariant"
	"clip/internal/snapshot"
)

// CLIP checkpointing: both stages' tables, the utility-buffer CAM, the
// exploration-window state, the mirrored history registers and the
// observation map all serialize; cfg and the counter bounds are rebuilt by
// construction.
//
// A filter or predictor entry goes out as one word of a packed column,
// its fields at their Table 2 widths, low bits first, the tag or the counter
// on top. A loaded word with a bit set past the top field is refused: its
// top field, or one below it, held more than its width.

// Filter entry word: valid (1), critCount (2), hitCount (6), issueCount (6),
// critAcc (1), explored (4), tag (6).
const (
	filterCritShift     = 1
	filterHitShift      = filterCritShift + critCountBits
	filterIssueShift    = filterHitShift + 6
	filterAccShift      = filterIssueShift + 6
	filterExploredShift = filterAccShift + 1
	filterTagShift      = filterExploredShift + 4
	filterWordBits      = filterTagShift + 6
)

// Predictor entry word: valid (1), nru (1), tag (6), counter (3).
const (
	predNRUShift     = 1
	predTagShift     = 2
	predCounterShift = predTagShift + 6
	predWordBits     = predCounterShift + counterBits
)

// bit is 1 for true.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// field extracts the width-bit field at shift.
func field(w uint64, shift, width int) uint8 {
	return uint8(w >> shift & (1<<width - 1))
}

func (e *filterEntry) word() uint64 {
	return bit(e.valid) | uint64(e.critCount)<<filterCritShift |
		uint64(e.hitCount)<<filterHitShift | uint64(e.issueCount)<<filterIssueShift |
		bit(e.critAcc)<<filterAccShift | uint64(e.explored)<<filterExploredShift |
		uint64(e.tag)<<filterTagShift
}

func filterEntryOf(w uint64) filterEntry {
	return filterEntry{
		valid:      w&1 != 0,
		critCount:  field(w, filterCritShift, critCountBits),
		hitCount:   field(w, filterHitShift, 6),
		issueCount: field(w, filterIssueShift, 6),
		critAcc:    w>>filterAccShift&1 != 0,
		explored:   field(w, filterExploredShift, 4),
		tag:        field(w, filterTagShift, 6),
	}
}

func (e *predEntry) word() uint64 {
	return bit(e.valid) | bit(e.nru)<<predNRUShift |
		uint64(e.tag)<<predTagShift | uint64(e.counter)<<predCounterShift
}

func predEntryOf(w uint64) predEntry {
	return predEntry{
		valid:   w&1 != 0,
		nru:     w>>predNRUShift&1 != 0,
		tag:     field(w, predTagShift, 6),
		counter: field(w, predCounterShift, counterBits),
	}
}

// walkEntries walks a table as one packed word per entry through the
// Coder's scratch; what names the table in errors.
func walkEntries[E comparable](s *snapshot.Coder, what string, entries []E, bits int,
	word func(*E) uint64, of func(uint64) E) {
	if !s.Fixed(what, len(entries)) {
		return
	}
	words := s.Words(len(entries))
	if !s.Loading() {
		for i := range entries {
			words[i] = word(&entries[i])
			if invariant.Enabled {
				invariant.Check(of(words[i]) == entries[i],
					"%s: entry %d has a field wider than its word holds", what, i)
			}
		}
	}
	s.U64s(words)
	if !s.Loading() || s.Err() != nil {
		return
	}
	for i, w := range words {
		if w>>bits != 0 {
			s.Corrupt("%s: entry %d is %#x, wider than %d bits", what, i, w, bits)
			return
		}
		entries[i] = of(w)
	}
}

// State walks the CLIP instance; loading needs an identically-configured
// receiver.
func (c *CLIP) State(s *snapshot.Coder) {
	walkEntries(s, "core: filter entries", c.filter, filterWordBits, (*filterEntry).word, filterEntryOf)
	walkEntries(s, "core: predictor entries", c.pred, predWordBits, (*predEntry).word, predEntryOf)
	if s.Err() != nil {
		return
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
