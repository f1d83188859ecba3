package prefetch

import (
	"clip/internal/mem"
	"clip/internal/table"
)

// Stride is the classic IP-stride prefetcher (Fu, Patel & Janssens,
// MICRO'92): per-IP last address, stride and a two-bit confidence counter.
// Its moderate accuracy (<60% on irregular code) is why accuracy-driven
// throttlers were designed around prefetchers like it.
type Stride struct {
	aggr
	table *table.Fixed[strideEntry] // per-IP stride state, FIFO replacement

	scratchOut [strideBaseDegree + maxBoost]Candidate // reused; returned slice valid until next Train
}

type strideEntry struct {
	lastLine uint64
	stride   int64
	conf     int8
}

const (
	strideTableSize  = 128
	strideBaseDegree = 2
)

// newStrides builds n empty IP-stride prefetchers whose tables are carved
// per kind.
func newStrides(a *mem.Arena, n int) []Stride {
	ss := mem.Make[Stride](a, n)
	tables := table.NewFixeds[strideEntry](a, n, strideTableSize, table.FIFO)
	for i := range ss {
		ss[i].table = &tables[i]
	}
	return ss
}

// Name implements Prefetcher.
func (s *Stride) Name() string { return "stride" }

// Train implements Prefetcher.
func (s *Stride) Train(a Access) []Candidate {
	line := a.Addr.LineID()
	e, present, _, _, _ := s.table.GetOrInsert(a.IP)
	if !present {
		e.lastLine = line
		return nil
	}
	d := int64(line) - int64(e.lastLine)
	e.lastLine = line
	if d == 0 {
		return nil
	}
	if d == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.stride, e.conf = d, 1
		}
	}
	if e.conf < 2 {
		return nil
	}
	degree := degreeFor(strideBaseDegree, s.Aggressiveness())
	out := s.scratchOut[:0]
	for i := 1; i <= degree; i++ {
		t := int64(line) + e.stride*int64(i)
		if t <= 0 {
			break
		}
		out = append(out, Candidate{
			Addr:      mem.Addr(uint64(t) << mem.LineShift),
			TriggerIP: a.IP, FillLevel: mem.LevelL1, Confidence: 0.5,
		})
	}
	return out
}

// Stream is a POWER4-style stream prefetcher: it detects sequential miss
// streams within a page and runs ahead of them.
type Stream struct {
	aggr
	streams [16]streamEntry
	next    int

	scratchOut [streamBaseDegree + maxBoost]Candidate // reused; returned slice valid until next Train
}

const streamBaseDegree = 4

type streamEntry struct {
	valid bool
	page  uint64
	last  uint64
	dir   int64
	conf  int8
}

// Name implements Prefetcher.
func (s *Stream) Name() string { return "stream" }

// Train implements Prefetcher.
func (s *Stream) Train(a Access) []Candidate {
	page := a.Addr.PageID()
	line := a.Addr.LineID()
	for i := range s.streams {
		st := &s.streams[i]
		if !st.valid || st.page != page {
			continue
		}
		d := int64(line) - int64(st.last)
		st.last = line
		if d == 0 {
			return nil
		}
		dir := int64(1)
		if d < 0 {
			dir = -1
		}
		if dir == st.dir {
			if st.conf < 4 {
				st.conf++
			}
		} else {
			st.conf--
			if st.conf <= 0 {
				st.dir, st.conf = dir, 1
			}
		}
		if st.conf < 2 {
			return nil
		}
		degree := degreeFor(streamBaseDegree, s.Aggressiveness())
		out := s.scratchOut[:0]
		for k := 1; k <= degree; k++ {
			t := int64(line) + st.dir*int64(k)
			if t <= 0 {
				break
			}
			out = append(out, Candidate{
				Addr:      mem.Addr(uint64(t) << mem.LineShift),
				TriggerIP: a.IP, FillLevel: mem.LevelL1, Confidence: 0.5,
			})
		}
		return out
	}
	// Allocate a stream register round-robin.
	s.streams[s.next] = streamEntry{valid: true, page: page, last: line, dir: 1, conf: 1}
	s.next = (s.next + 1) % len(s.streams)
	return nil
}
