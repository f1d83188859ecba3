// Package dspatch implements DSPatch (Bera et al., MICRO'19) as a bandwidth-
// modulated spatial add-on for a base prefetcher. DSPatch learns two spatial
// bit-patterns per program+region signature:
//
//   - CovP, the OR of observed footprints (coverage-biased), and
//   - AccP, the AND of observed footprints (accuracy-biased),
//
// and selects between them using the DRAM *per-controller* bandwidth
// utilization: below the threshold it prefetches the aggressive CovP pattern,
// above it the conservative AccP pattern.
//
// The paper's criticism, reproduced here: the per-controller signal is myopic
// (it samples one controller, not system-wide pressure), and in constrained-
// bandwidth scenarios measured utilization is frequently below the threshold
// while queues are already deep — so DSPatch keeps choosing coverage and
// exacerbates the latency problem.
package dspatch

import (
	"clip/internal/mem"
	"clip/internal/prefetch"
	"clip/internal/table"
)

// BandwidthSource samples the DRAM controller utilization DSPatch keys on.
type BandwidthSource func() float64

// DSPatch wraps a base prefetcher with dual spatial patterns.
type DSPatch struct {
	base prefetch.Prefetcher
	bw   BandwidthSource

	regions *table.Fixed[regionAcc] // active recordings, FIFO replacement
	table   *table.Fixed[patterns]  // per-signature dual patterns, FIFO

	// scratch is reused; the returned slice is valid until the next Train.
	scratch [prefetch.MaxCandidates + maxExtra]prefetch.Candidate
	stats   Stats
}

// Stats reports modulation behaviour.
type Stats struct {
	CovSelections uint64
	AccSelections uint64
	Extra         uint64 // candidates added beyond the base prefetcher
}

type regionAcc struct {
	sig    uint64
	bitmap uint64
}

type patterns struct {
	covp uint64 // OR of footprints
	accp uint64 // AND of footprints
	seen int
}

const (
	regionLines   = 32 // 2KB regions
	activeRegions = 64
	tableMax      = 2048
	utilThreshold = 0.70
	maxExtra      = 8
)

// New wraps base with DSPatch modulation fed by bw: the one-member case of
// NewArray.
func New(base prefetch.Prefetcher, bw BandwidthSource) *DSPatch {
	return &NewArray(nil, []prefetch.Prefetcher{base}, bw)[0]
}

// NewArray wraps each of bases, one per core, with DSPatch modulation fed by
// the one source bw. The wrappers are one array and their tables are carved
// per kind (table.NewFixeds), every slab taken from a (mem.Make).
func NewArray(a *mem.Arena, bases []prefetch.Prefetcher, bw BandwidthSource) []DSPatch {
	n := len(bases)
	ds := mem.Make[DSPatch](a, n)
	regions := table.NewFixeds[regionAcc](a, n, activeRegions, table.FIFO)
	tables := table.NewFixeds[patterns](a, n, tableMax, table.FIFO)
	for i := range ds {
		ds[i] = DSPatch{base: bases[i], bw: bw, regions: &regions[i], table: &tables[i]}
	}
	return ds
}

// Name implements prefetch.Prefetcher.
func (d *DSPatch) Name() string { return d.base.Name() + "+dspatch" }

// Stats returns live counters.
func (d *DSPatch) Stats() *Stats { return &d.stats }

// TableGeometries reports the kernel shapes for the storage budget
// (cmd/clipstorage -tables). Bits per entry model SRAM content: a 32-bit
// program+region signature with a 32-line bitmap per active recording, and
// dual 32-line patterns plus a footprint count per pattern-table entry.
func (d *DSPatch) TableGeometries() []table.Geometry {
	return []table.Geometry{
		d.regions.Geometry("dspatch.regions", 32+32),
		d.table.Geometry("dspatch.table", 32+32+6),
	}
}

func sigOf(ip uint64, addr mem.Addr) uint64 {
	return mem.Mix64(ip ^ uint64(addr.LineID()%regionLines)<<48)
}

// Train implements prefetch.Prefetcher: trains the base prefetcher and the
// dual patterns, then emits the base candidates plus the selected pattern's
// expansion.
func (d *DSPatch) Train(a prefetch.Access) []prefetch.Candidate {
	out := d.base.Train(a)

	rid := a.Addr.Region()
	off := int(a.Addr.LineID() % regionLines)
	regionBase := mem.Addr((a.Addr.LineID() - uint64(off)) << mem.LineShift)

	r := d.regions.Get(rid)
	trigger := false
	if r == nil {
		trigger = true
		var old regionAcc
		var evicted bool
		r, _, old, evicted = d.regions.Insert(rid, regionAcc{sig: sigOf(a.IP, a.Addr)})
		if evicted {
			d.commit(old)
		}
	}
	r.bitmap |= 1 << off

	if !trigger {
		return out
	}
	p := d.table.Get(sigOf(a.IP, a.Addr))
	if p == nil || p.seen == 0 {
		return out
	}
	// Modulate: per-controller utilization decides coverage vs accuracy.
	var pattern uint64
	if d.bw() < utilThreshold {
		pattern = p.covp
		d.stats.CovSelections++
	} else {
		pattern = p.accp
		d.stats.AccSelections++
	}
	// The base's candidates first, copied into this wrapper's own scratch:
	// appending to the base's slice would grow a copy the base never keeps.
	out = append(d.scratch[:0], out...)
	added := 0
	for o := 0; o < regionLines && added < maxExtra; o++ {
		if pattern&(1<<o) == 0 || o == off {
			continue
		}
		out = append(out, prefetch.Candidate{
			Addr:      regionBase + mem.Addr(o*mem.LineBytes),
			TriggerIP: a.IP, FillLevel: mem.LevelL2, Confidence: 0.5,
		})
		added++
		d.stats.Extra++
	}
	return out
}

func (d *DSPatch) commit(r regionAcc) {
	if r.bitmap == 0 {
		return
	}
	p := d.table.Get(r.sig)
	if p == nil {
		p, _, _, _ = d.table.Insert(r.sig, patterns{accp: ^uint64(0)})
	}
	p.covp |= r.bitmap
	p.accp &= r.bitmap
	p.seen++
}
