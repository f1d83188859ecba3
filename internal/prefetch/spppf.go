package prefetch

import (
	"clip/internal/mem"
	"clip/internal/table"
)

// SPPPPF is signature path prefetching (Kim et al., MICRO'16) with perceptron
// prefetch filtering (Bhatia et al., ISCA'19) — the paper's state-of-the-art
// L2 prefetcher. SPP compresses each page's recent delta history into a
// signature, predicts the next delta from a pattern table, and walks the
// signature path ahead of the access stream with multiplicative confidence.
// PPF lets the walk continue regardless of confidence and gates each issue
// with a perceptron over features of the candidate, trained on usefulness
// feedback.
type SPPPPF struct {
	aggr
	pages  *table.Fixed[sppPage] // per-page signature state, FIFO replacement
	table  [sppTableSize]sppPattern
	filter ppf

	scratchOut [sppMaxDepth]Candidate // reused; returned slice valid until next Train
}

type sppPage struct {
	lastLine uint64
	sig      uint16
}

type sppPattern struct {
	deltas [4]int64
	counts [4]uint8
}

const (
	sppTableSize  = 2048
	sppPageMax    = 64
	sppSigMask    = 0xfff
	sppMinConf    = 0.20
	sppBaseDepth  = 4
	sppExtraDepth = 4 // the walk runs this far past the degree
	sppMaxDepth   = sppBaseDepth + maxBoost + sppExtraDepth
	ppfTables     = 3
	ppfEntries    = 1024
	ppfThreshold  = 0
	ppfTrainBound = 16
)

// ppf is the perceptron prefetch filter.
type ppf struct {
	weights [ppfTables][ppfEntries]int8
}

func (f *ppf) features(c Candidate, depth int) [ppfTables]uint32 {
	line := c.Addr.LineID()
	return [ppfTables]uint32{
		uint32(mem.Mix64(c.TriggerIP) % ppfEntries),
		uint32(mem.Mix64(line^c.TriggerIP<<7) % ppfEntries),
		uint32(mem.Mix64(uint64(depth)<<40^line) % ppfEntries),
	}
}

func (f *ppf) predict(c Candidate, depth int) (bool, [ppfTables]uint32) {
	idx := f.features(c, depth)
	sum := 0
	for t := 0; t < ppfTables; t++ {
		sum += int(f.weights[t][idx[t]])
	}
	return sum >= ppfThreshold, idx
}

func (f *ppf) train(idx [ppfTables]uint32, useful bool) {
	for t := 0; t < ppfTables; t++ {
		w := f.weights[t][idx[t]]
		if useful && w < ppfTrainBound {
			w++
		} else if !useful && w > -ppfTrainBound {
			w--
		}
		f.weights[t][idx[t]] = w
	}
}

// newSPPPPFs constructs n SPPs with zeroed perceptron filters, their page
// tables carved per kind.
func newSPPPPFs(a *mem.Arena, n int) []SPPPPF {
	ps := mem.Make[SPPPPF](a, n)
	pages := table.NewFixeds[sppPage](a, n, sppPageMax, table.FIFO)
	for i := range ps {
		ps[i].pages = &pages[i]
	}
	return ps
}

// Name implements Prefetcher.
func (s *SPPPPF) Name() string { return "spppf" }

// Train implements Prefetcher.
func (s *SPPPPF) Train(a Access) []Candidate {
	pid := a.Addr.PageID()
	line := a.Addr.LineID()
	pg := s.pages.Get(pid)
	if pg == nil {
		s.pages.Insert(pid, sppPage{lastLine: line})
		return nil
	}
	delta := int64(line) - int64(pg.lastLine)
	pg.lastLine = line
	if delta == 0 {
		return nil
	}

	// Update pattern table for the old signature.
	s.learn(pg.sig, delta)
	pg.sig = nextSig(pg.sig, delta)

	// Lookahead walk from the new signature.
	depth := degreeFor(sppBaseDepth, s.Aggressiveness()) + sppExtraDepth
	out := s.scratchOut[:0]
	sig := pg.sig
	cur := int64(line)
	conf := 1.0
	for d := 0; d < depth; d++ {
		bestDelta, bestConf := s.lookup(sig)
		if bestDelta == 0 {
			break
		}
		conf *= bestConf
		cur += bestDelta
		if cur <= 0 {
			break
		}
		cand := Candidate{
			Addr:      mem.Addr(uint64(cur) << mem.LineShift),
			TriggerIP: a.IP, FillLevel: mem.LevelL2, Confidence: conf,
		}
		// PPF gate: issue iff the perceptron approves; the walk continues
		// regardless of SPP confidence (PPF's contribution).
		if ok, _ := s.filter.predict(cand, d); ok {
			if conf >= 0.6 {
				cand.FillLevel = mem.LevelL1
			}
			out = append(out, cand)
		}
		if conf < sppMinConf && d >= sppBaseDepth {
			break
		}
		sig = nextSig(sig, bestDelta)
	}
	return out
}

// Feedback implements FeedbackSink: PPF trains on usefulness outcomes.
func (s *SPPPPF) Feedback(c Candidate, useful bool) {
	_, idx := s.filter.predict(c, 0)
	s.filter.train(idx, useful)
}

func nextSig(sig uint16, delta int64) uint16 {
	return (sig<<3 ^ uint16(mem.Mix64(uint64(delta))&0x3f)) & sppSigMask
}

func (s *SPPPPF) learn(sig uint16, delta int64) {
	p := &s.table[sig%sppTableSize]
	for i := range p.deltas {
		if p.deltas[i] == delta {
			if p.counts[i] < 255 {
				p.counts[i]++
			}
			return
		}
	}
	// Replace the weakest slot.
	weak := 0
	for i := 1; i < len(p.counts); i++ {
		if p.counts[i] < p.counts[weak] {
			weak = i
		}
	}
	p.deltas[weak] = delta
	p.counts[weak] = 1
}

func (s *SPPPPF) lookup(sig uint16) (delta int64, conf float64) {
	p := &s.table[sig%sppTableSize]
	var total uint64
	best := -1
	for i := range p.deltas {
		total += uint64(p.counts[i])
		if p.deltas[i] != 0 && (best < 0 || p.counts[i] > p.counts[best]) {
			best = i
		}
	}
	if best < 0 || total == 0 || p.counts[best] == 0 {
		return 0, 0
	}
	return p.deltas[best], float64(p.counts[best]) / float64(total)
}
