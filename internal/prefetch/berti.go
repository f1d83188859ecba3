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
// Layout: the per-IP state is not a table of entry structs but one slab of
// words, a block of bertiRowWords per row id, with rows mapped from IPs by
// a table.Fixed[int32] (FIFO, as before — the row recycles when its IP is
// evicted). A block holds the access history ring (lines, then cycles), the
// delta set (values, then hit counts) and the row's four counters, so
// Train's inner loops — the timeliness scan over history and the delta
// match — walk one word-sized run each, and the whole probe sequence is one
// table lookup per access (GetOrInsert).
//
// The slab holds bertiInitRows blocks at construction and doubles, up to
// bertiTableSize, when rowFor hands out a row past its end: most workloads
// train on a few load IPs, and a core's Berti is built on every fork.
type Berti struct {
	aggr
	rows *table.Fixed[int32] // IP -> row id, FIFO replacement

	// slab is the rows' blocks: row r is slab[r*bertiRowWords:][:bertiRowWords].
	// Delta values are int64 bit-cast to uint64, and the counters are small
	// values widened to the slab word.
	slab []uint64

	// nextRow hands out never-used rows until the table fills; after that
	// rows recycle through FIFO eviction. Rows at and past it are zero.
	nextRow int32

	// latencyEst estimates the fetch latency that defines timeliness; it is
	// updated from observed miss-to-hit spacing (a fixed seed value works
	// until measurements accumulate).
	latencyEst uint64

	// Per-call scratch: Train runs on every demand access, so it ranks at
	// most bertiDeltaCap deltas and returns at most its top degree in these
	// arrays (the Prefetcher contract says the returned slice is valid until
	// the next Train).
	scratchTop [bertiDeltaCap]bertiScored
	scratchOut [bertiBaseDegree + maxBoost]Candidate
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

	// bertiInitRows is the slab's size at construction, in rows.
	bertiInitRows = 16
)

// A row's block: offsets of its runs and counters.
const (
	rowHistLine   = 0                            // access history ring: lines
	rowHistCycle  = rowHistLine + bertiHistLen   // and cycles
	rowDeltaVal   = rowHistCycle + bertiHistLen  // delta set: values
	rowDeltaHits  = rowDeltaVal + bertiDeltaCap  // and hit counts
	rowHistLen    = rowDeltaHits + bertiDeltaCap // history entries held
	rowHistPos    = rowHistLen + 1               // next history slot
	rowNDeltas    = rowHistPos + 1               // live deltas
	rowAccesses   = rowNDeltas + 1               // accesses since the last aging
	bertiRowWords = rowAccesses + 1
)

// newBertis constructs n Bertis, with the tuned watermarks, whose row tables are one table.NewFixeds
// and whose initial slabs are carved from one allocation; a slab that grows
// (fit) moves to a backing array of its own.
func newBertis(a *mem.Arena, n int) []Berti {
	bs := mem.Make[Berti](a, n)
	rows := table.NewFixeds[int32](a, n, bertiTableSize, table.FIFO)
	slab := mem.Make[uint64](a, n*bertiInitRows*bertiRowWords)
	for i := range bs {
		bs[i] = Berti{rows: &rows[i], slab: mem.Carve(&slab, bertiInitRows*bertiRowWords), latencyEst: 120}
	}
	return bs
}

// fit grows the slab, doubling, until it holds rows blocks.
func (b *Berti) fit(rows int) {
	n := len(b.slab)
	for n < rows*bertiRowWords {
		n *= 2
	}
	if n > len(b.slab) {
		b.slab = append(b.slab, make([]uint64, n-len(b.slab))...)
	}
}

// Name implements Prefetcher.
func (b *Berti) Name() string { return "berti" }

// rowFor resolves (or allocates) the row id for ip and returns its block:
// one table probe. A row freed by FIFO eviction is recycled for the new IP
// with its counters reset — exactly the fresh zero entry the struct-valued
// table handed out.
func (b *Berti) rowFor(ip uint64) []uint64 {
	rp, present, _, evictedRow, evicted := b.rows.GetOrInsert(ip)
	if present {
		return b.block(*rp)
	}
	row := b.nextRow
	if evicted {
		row = evictedRow
	} else {
		b.nextRow++
		b.fit(int(b.nextRow))
	}
	*rp = row
	r := b.block(row)
	r[rowHistLen] = 0
	r[rowHistPos] = 0
	r[rowNDeltas] = 0
	r[rowAccesses] = 0
	return r
}

// block returns row's block.
func (b *Berti) block(row int32) []uint64 {
	at := int(row) * bertiRowWords
	return b.slab[at : at+bertiRowWords : at+bertiRowWords]
}

// Train implements Prefetcher.
func (b *Berti) Train(a Access) []Candidate {
	r := b.rowFor(a.IP)
	line := a.Addr.LineID()
	r[rowAccesses]++

	lines := r[rowHistLine : rowHistLine+bertiHistLen]
	hist := r[rowHistCycle : rowHistCycle+bertiHistLen]
	deltaVal := r[rowDeltaVal : rowDeltaVal+bertiDeltaCap]
	deltaHits := r[rowDeltaHits : rowDeltaHits+bertiDeltaCap]
	nd := int(r[rowNDeltas])

	// Search history for timely deltas: accesses old enough that a prefetch
	// issued at that time would have completed by now. The cycle run is
	// scanned first — most entries fail the timeliness gate, and that test
	// touches one word per entry.
	for i := 0; i < int(r[rowHistLen]); i++ {
		if hist[i]+b.latencyEst > a.Cycle {
			continue // too recent: a prefetch from there would have been late
		}
		d := int64(line) - int64(lines[i])
		if d == 0 || d > 512 || d < -512 {
			continue
		}
		di := -1
		for j := 0; j < nd; j++ {
			if deltaVal[j] == uint64(d) {
				di = j
				break
			}
		}
		if di < 0 {
			if nd >= bertiDeltaCap {
				continue
			}
			di = nd
			deltaVal[di] = uint64(d)
			deltaHits[di] = 0
			nd++
		}
		deltaHits[di]++
	}
	r[rowNDeltas] = uint64(nd)

	// Record this access.
	pos := r[rowHistPos]
	lines[pos] = line
	hist[pos] = a.Cycle
	r[rowHistPos] = (pos + 1) % bertiHistLen
	if r[rowHistLen] < bertiHistLen {
		r[rowHistLen]++
	}

	acc := r[rowAccesses]
	if acc < bertiMinSamples {
		return nil
	}

	// Rank deltas by coverage. The comparator is a total order (coverage
	// desc, delta asc), so the ranking is independent of table order.
	top := b.scratchTop[:0]
	for j := 0; j < nd; j++ {
		cov := float64(deltaHits[j]) / float64(acc)
		if cov >= bertiLoCoverage {
			top = append(top, bertiScored{int64(deltaVal[j]), cov})
		}
	}
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
	maybeAge(r, acc)
	return out
}

// maybeAge periodically halves a row's coverage counters so stale deltas
// fade (the tuned Berti re-evaluates coverage per epoch), and compacts away
// deltas that faded to nothing so the bounded table can admit a changed
// pattern.
func maybeAge(r []uint64, acc uint64) {
	if acc%256 != 0 {
		return
	}
	deltaVal := r[rowDeltaVal : rowDeltaVal+bertiDeltaCap]
	deltaHits := r[rowDeltaHits : rowDeltaHits+bertiDeltaCap]
	keep := 0
	for j := 0; j < int(r[rowNDeltas]); j++ {
		h := deltaHits[j] / 2
		if h != 0 {
			deltaVal[keep] = deltaVal[j]
			deltaHits[keep] = h
			keep++
		}
	}
	r[rowNDeltas] = uint64(keep)
	r[rowAccesses] = acc / 2
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
