package prefetch

import (
	"slices"

	"clip/internal/mem"
	"clip/internal/table"
)

// Berti is the state-of-the-art local-delta L1D prefetcher (Navarro-Torres
// et al., MICRO'22). Per trigger IP it detects *timely* deltas — deltas whose
// producing access happened long enough ago that a prefetch issued then would
// have arrived before now — and measures each delta's local coverage. Deltas
// above a high coverage watermark fill to L1; above a low watermark to L2.
// High-coverage timely deltas are what make Berti the most accurate of the
// evaluated prefetchers (>82.9% average in the paper).
//
// Layout: the per-IP state is not a table of entry structs but a set of
// flat column arrays indexed by a row id, with rows mapped from IPs by a
// table.Fixed[int32] (FIFO, as before — the row recycles when its IP is
// evicted). Train's inner loops — the timeliness scan over history and the
// delta match — walk one word-sized column each instead of striding through
// 500-byte entry structs, and the whole probe sequence is one table lookup
// per access (GetOrInsert).
type Berti struct {
	aggr
	rows *table.Fixed[int32] // IP -> row id, FIFO replacement

	// Column views carved from slab (one allocation), one block of
	// bertiHistLen / bertiDeltaCap elements per row. histLine/histCycle hold
	// the access history ring; deltaVal/deltaHits the live delta set
	// ([:nDeltas]). deltaVal stores int64 deltas bit-cast to uint64 so every
	// column shares the slab; histLen/histPos/nDeltas are small counters
	// widened to the slab word.
	slab      []uint64
	histLine  []uint64
	histCycle []uint64
	deltaVal  []uint64 // bit-cast int64
	deltaHits []uint64

	// Per-row scalar columns, also carved from slab.
	histLen  []uint64
	histPos  []uint64
	nDeltas  []uint64
	accesses []uint64

	// nextRow hands out never-used rows until the table fills; after that
	// rows recycle through FIFO eviction.
	nextRow int32

	// latencyEst estimates the fetch latency that defines timeliness; it is
	// updated from observed miss-to-hit spacing (a fixed seed value works
	// until measurements accumulate).
	latencyEst uint64

	// Per-call scratch buffers: Train runs on every demand access, so its
	// ranking and output slices are reused across calls (the Prefetcher
	// contract says the returned slice is valid until the next Train).
	scratchTop []bertiScored
	scratchOut []Candidate
}

type bertiScored struct {
	delta    int64
	coverage float64
}

const (
	bertiHistLen    = 16
	bertiTableSize  = 64
	bertiDeltaCap   = 16
	bertiHiCoverage = 0.60 // fill-to-L1 watermark
	bertiLoCoverage = 0.30 // fill-to-L2 watermark
	bertiBaseDegree = 3
	bertiMinSamples = 8
)

// NewBerti constructs Berti with the tuned watermarks. All columns are
// carved from one slab so constructing a per-core prefetcher costs one
// allocation beyond the row table.
func NewBerti() *Berti {
	const (
		hist   = bertiTableSize * bertiHistLen
		deltas = bertiTableSize * bertiDeltaCap
	)
	b := &Berti{
		rows:       table.NewFixed[int32](bertiTableSize, table.FIFO),
		slab:       make([]uint64, 2*hist+2*deltas+4*bertiTableSize),
		latencyEst: 120,
	}
	s := b.slab
	b.histLine, s = s[:hist], s[hist:]
	b.histCycle, s = s[:hist], s[hist:]
	b.deltaVal, s = s[:deltas], s[deltas:]
	b.deltaHits, s = s[:deltas], s[deltas:]
	b.histLen, s = s[:bertiTableSize], s[bertiTableSize:]
	b.histPos, s = s[:bertiTableSize], s[bertiTableSize:]
	b.nDeltas, s = s[:bertiTableSize], s[bertiTableSize:]
	b.accesses = s
	return b
}

// Name implements Prefetcher.
func (b *Berti) Name() string { return "berti" }

// rowFor resolves (or allocates) the row id for ip: one table probe. A row
// freed by FIFO eviction is recycled for the new IP with its columns reset —
// exactly the fresh zero entry the struct-valued table handed out.
func (b *Berti) rowFor(ip uint64) int32 {
	rp, present, _, evictedRow, evicted := b.rows.GetOrInsert(ip)
	if present {
		return *rp
	}
	row := b.nextRow
	if evicted {
		row = evictedRow
	} else {
		b.nextRow++
	}
	*rp = row
	b.histLen[row] = 0
	b.histPos[row] = 0
	b.nDeltas[row] = 0
	b.accesses[row] = 0
	return row
}

// Train implements Prefetcher.
func (b *Berti) Train(a Access) []Candidate {
	row := b.rowFor(a.IP)
	line := a.Addr.LineID()
	b.accesses[row]++

	hbase := int(row) * bertiHistLen
	dbase := int(row) * bertiDeltaCap
	hist := b.histCycle[hbase : hbase+bertiHistLen]
	lines := b.histLine[hbase : hbase+bertiHistLen]
	nd := int(b.nDeltas[row])

	// Search history for timely deltas: accesses old enough that a prefetch
	// issued at that time would have completed by now. The cycle column is
	// scanned first — most entries fail the timeliness gate, and that test
	// touches one word per entry.
	for i := 0; i < int(b.histLen[row]); i++ {
		if hist[i]+b.latencyEst > a.Cycle {
			continue // too recent: a prefetch from there would have been late
		}
		d := int64(line) - int64(lines[i])
		if d == 0 || d > 512 || d < -512 {
			continue
		}
		di := -1
		for j := 0; j < nd; j++ {
			if b.deltaVal[dbase+j] == uint64(d) {
				di = j
				break
			}
		}
		if di < 0 {
			if nd >= bertiDeltaCap {
				continue
			}
			di = nd
			b.deltaVal[dbase+di] = uint64(d)
			b.deltaHits[dbase+di] = 0
			nd++
		}
		b.deltaHits[dbase+di]++
	}
	b.nDeltas[row] = uint64(nd)

	// Record this access.
	pos := b.histPos[row]
	lines[pos] = line
	hist[pos] = a.Cycle
	b.histPos[row] = (pos + 1) % bertiHistLen
	if b.histLen[row] < bertiHistLen {
		b.histLen[row]++
	}

	acc := b.accesses[row]
	if acc < bertiMinSamples {
		return nil
	}

	// Rank deltas by coverage. The comparator is a total order (coverage
	// desc, delta asc), so the ranking is independent of table order.
	top := b.scratchTop[:0]
	for j := 0; j < nd; j++ {
		cov := float64(b.deltaHits[dbase+j]) / float64(acc)
		if cov >= bertiLoCoverage {
			top = append(top, bertiScored{int64(b.deltaVal[dbase+j]), cov})
		}
	}
	b.scratchTop = top
	if len(top) == 0 {
		return nil
	}
	slices.SortFunc(top, func(a, b bertiScored) int {
		switch {
		case a.coverage > b.coverage:
			return -1
		case a.coverage < b.coverage:
			return 1
		case a.delta < b.delta:
			return -1
		case a.delta > b.delta:
			return 1
		}
		return 0
	})
	degree := degreeFor(bertiBaseDegree, b.Aggressiveness())
	if len(top) > degree {
		top = top[:degree]
	}
	out := b.scratchOut[:0]
	for _, s := range top {
		fill := mem.LevelL2
		if s.coverage >= bertiHiCoverage {
			fill = mem.LevelL1
		}
		target := int64(line) + s.delta
		if target <= 0 {
			continue
		}
		out = append(out, Candidate{
			Addr:      mem.Addr(uint64(target) << mem.LineShift),
			TriggerIP: a.IP, FillLevel: fill, Confidence: s.coverage,
		})
	}
	b.maybeAge(row, acc)
	b.scratchOut = out
	return out
}

// maybeAge periodically halves coverage counters so stale deltas fade (the
// tuned Berti re-evaluates coverage per epoch), and compacts away deltas
// that faded to nothing so the bounded table can admit a changed pattern.
func (b *Berti) maybeAge(row int32, acc uint64) {
	if acc%256 != 0 {
		return
	}
	dbase := int(row) * bertiDeltaCap
	keep := 0
	for j := 0; j < int(b.nDeltas[row]); j++ {
		h := b.deltaHits[dbase+j] / 2
		if h != 0 {
			b.deltaVal[dbase+keep] = b.deltaVal[dbase+j]
			b.deltaHits[dbase+keep] = h
			keep++
		}
	}
	b.nDeltas[row] = uint64(keep)
	b.accesses[row] = acc / 2
}

// ObserveMissLatency lets the owner feed measured miss latencies to refine
// the timeliness window.
func (b *Berti) ObserveMissLatency(lat uint64) {
	// Exponential moving average, weight 1/8.
	est := int64(b.latencyEst) + (int64(lat)-int64(b.latencyEst))/8
	if est < 1 {
		est = 1
	}
	b.latencyEst = uint64(est)
}
