package prefetch

import (
	"clip/internal/mem"
	"clip/internal/table"
)

// Bingo (Bakhshalipour et al., HPCA'19) is a spatial prefetcher that records
// the footprint of 2KB regions and replays it on recurrence. It associates
// each footprint with two events of different specificity:
//
//   - the long event "IP + Address" (an IP touching the same trigger address),
//   - the short event "IP + Offset" (an IP touching the same offset in any
//     region).
//
// Lookup prefers the long event and falls back to the short one, which is
// Bingo's headline idea: don't correlate with a single event.
type Bingo struct {
	aggr
	active *table.Fixed[bingoRegion] // region id -> being-recorded footprint
	long   *table.Fixed[uint32]      // (IP, full trigger addr) -> footprint bitmap
	short  *table.Fixed[uint32]      // (IP, offset) -> footprint bitmap

	scratchOut [bingoBaseDegree + maxBoost]Candidate // reused; returned slice valid until next Train
}

type bingoRegion struct {
	triggerIP   uint64
	triggerAddr mem.Addr
	bitmap      uint32
	touches     int
}

const (
	bingoRegionLines = 32 // 2KB regions
	bingoActiveMax   = 64
	bingoHistoryMax  = 2048
	bingoBaseDegree  = 8 // footprints are bursty
)

// newBingos constructs n empty Bingos whose tables are carved per kind.
func newBingos(a *mem.Arena, n int) []Bingo {
	bs := mem.Make[Bingo](a, n)
	active := table.NewFixeds[bingoRegion](a, n, bingoActiveMax, table.FIFO)
	long := table.NewFixeds[uint32](a, n, bingoHistoryMax, table.FIFO)
	short := table.NewFixeds[uint32](a, n, bingoHistoryMax, table.FIFO)
	for i := range bs {
		bs[i].active, bs[i].long, bs[i].short = &active[i], &long[i], &short[i]
	}
	return bs
}

// Name implements Prefetcher.
func (b *Bingo) Name() string { return "bingo" }

func longKey(ip uint64, addr mem.Addr) uint64 {
	return mem.Mix64(ip<<32 ^ addr.LineID())
}

func shortKey(ip uint64, off int) uint64 {
	return mem.Mix64(ip<<8 ^ uint64(off) ^ 0xb1690)
}

// Train implements Prefetcher.
func (b *Bingo) Train(a Access) []Candidate {
	rid := a.Addr.Region()
	off := int(a.Addr.LineID() % bingoRegionLines)
	regionBase := mem.Addr((a.Addr.LineID() - uint64(off)) << mem.LineShift)

	if r := b.active.Get(rid); r != nil {
		// Region already being recorded: accumulate footprint.
		if r.bitmap&(1<<off) == 0 {
			r.bitmap |= 1 << off
			r.touches++
		}
		return nil
	}

	// New region: the tracker commits the oldest recording when full.
	_, _, old, evicted := b.active.Insert(rid, bingoRegion{
		triggerIP: a.IP, triggerAddr: a.Addr, bitmap: 1 << off, touches: 1,
	})
	if evicted {
		b.commit(old)
	}

	// Trigger access: predict the footprint from history.
	okLong := true
	fpp := b.long.Get(longKey(a.IP, a.Addr))
	if fpp == nil {
		okLong = false
		fpp = b.short.Get(shortKey(a.IP, off))
	}
	if fpp == nil || *fpp == 0 {
		return nil
	}
	fp := *fpp
	degree := degreeFor(bingoBaseDegree, b.Aggressiveness())
	out := b.scratchOut[:0]
	for o := 0; o < bingoRegionLines && len(out) < degree; o++ {
		if fp&(1<<o) == 0 || o == off {
			continue
		}
		out = append(out, Candidate{
			Addr:      regionBase + mem.Addr(o*mem.LineBytes),
			TriggerIP: a.IP, FillLevel: mem.LevelL2,
			Confidence: conf(okLong),
		})
	}
	return out
}

func conf(long bool) float64 {
	if long {
		return 0.85
	}
	return 0.6
}

// commit stores a finished region's footprint under both events. History
// replacement is FIFO on first insertion; re-learning an event overwrites
// the footprint in place without refreshing its queue position.
func (b *Bingo) commit(r bingoRegion) {
	if r.touches < 2 {
		return // singleton regions teach nothing
	}
	lk := longKey(r.triggerIP, r.triggerAddr)
	sk := shortKey(r.triggerIP, int(r.triggerAddr.LineID()%bingoRegionLines))
	b.long.Insert(lk, r.bitmap)
	b.short.Insert(sk, r.bitmap)
}
