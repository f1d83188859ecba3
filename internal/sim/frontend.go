package sim

import (
	"clip/internal/mem"
	"clip/internal/stats"
	"clip/internal/tlb"
)

// corePort is a core's front end. It owns the core's L1I and sits between
// the core and its L1D: it applies address-translation latency (DTLB/STLB/
// page walk, Table 3) to demand accesses before they reach the cache.
// Translated-but-delayed requests wait in a small queue and retry the L1D
// until accepted, preserving backpressure.
//
// It is a mem.Staller: a load refused by a full L1D queue after a DTLB hit
// is refused again — one more DTLB hit each time — until the L1D pops, so
// the core sleeps on the L1D's pop epoch and the hits are charged in bulk.
type corePort struct {
	s       *System
	core    int
	tlb     *tlb.Hierarchy
	l1i     *icache
	pending []delayedReq
}

type delayedReq struct {
	req   mem.Request
	ready uint64
}

// portQueueDepth bounds a port's queue of requests waiting on a translation;
// NewSystem carves each port's queue at this depth, so it never grows.
const portQueueDepth = 16

// Issue implements cpu.MemoryPort.
func (p *corePort) Issue(req *mem.Request) bool {
	extra := p.tlb.Translate(req.Addr)
	if extra == 0 {
		return p.s.l1d[p.core].Issue(req)
	}
	// Bound the translation queue so a wall of walks backpressures the LQ.
	if len(p.pending) >= portQueueDepth {
		return false
	}
	p.pending = append(p.pending, delayedReq{req: *req, ready: p.s.cycle + extra})
	return true
}

// StallEpoch implements mem.Staller: Issue(req) is a pure refusal exactly
// when the translation hits the DTLB (so nothing is installed or delayed)
// and the L1D's queue refuses the access.
func (p *corePort) StallEpoch(req *mem.Request) *uint64 {
	if !p.tlb.DTLBResident(req.Addr) {
		return nil
	}
	return p.s.l1d[p.core].StallEpoch(req)
}

// Refused implements mem.Staller: every refused retry re-translated first.
func (p *corePort) Refused(req *mem.Request, n uint64) {
	p.tlb.RepeatHits(req.Addr, n)
	p.s.l1d[p.core].Refused(req, n)
}

// NextEvent returns the earliest cycle >= now at which a queued translation
// can (re)try the L1D; mem.NoEvent when the port is empty. While the L1D's
// queue is full a matured translation has no event of its own: it goes in
// after the pop that the L1D's own horizon reports.
func (p *corePort) NextEvent(now uint64) uint64 {
	next := mem.NoEvent
	full := p.s.l1d[p.core].Full()
	for i := range p.pending {
		r := p.pending[i].ready
		if r <= now {
			if full {
				continue
			}
			return now
		}
		if r < next {
			next = r
		}
	}
	return next
}

// Tick retries matured translations. Against a full L1D queue every retry
// is refused and the queue is rewritten unchanged, so the skipping loop
// does not walk it.
func (p *corePort) Tick(cycle uint64) {
	if len(p.pending) == 0 || (p.s.skip && p.s.l1d[p.core].Full()) {
		return
	}
	rest := p.pending[:0]
	for i := range p.pending {
		d := &p.pending[i]
		if d.ready <= cycle && p.s.l1d[p.core].Issue(&d.req) {
			continue
		}
		rest = append(rest, *d)
	}
	p.pending = rest
}

// icache is the lightweight L1I model: a tag array sized to Table 3's 32KB
// 8-way L1I. Instruction blocks are small and code is resident on-chip in
// steady state, so a miss costs the L2 round trip rather than a modelled
// memory request — enough to make large-IP-footprint workloads (CloudSuite/
// CVP) pay realistic front-end stalls while loop kernels run free.
type icache struct {
	tags        tlb.TagArray
	missPenalty uint64
	stats       ICacheStats
}

// ICacheStats counts instruction-fetch outcomes.
type ICacheStats struct {
	Fetches uint64
	Misses  uint64
}

// HitRate returns the instruction fetch hit rate.
func (s *ICacheStats) HitRate() float64 {
	return 1 - stats.Ratio(s.Misses, s.Fetches)
}

// newL1Is builds n of Table 3's 32KB 8-way L1Is, their tag arrays carved
// from one slab, taken from a. A miss costs the on-chip round trip to where
// code resides.
func newL1Is(a *mem.Arena, n, div int, missPenalty uint64) []icache {
	sets := l1iSets(div)
	slab := mem.Make[uint64](a, n*tlb.TagArrayWords(sets, 8))
	ics := mem.Make[icache](a, n)
	for i := range ics {
		ics[i] = icache{tags: tlb.CarveTagArray(&slab, sets, 8), missPenalty: missPenalty}
	}
	return ics
}

// l1iSets scales the L1I's 64 sets like the L1D's, to no fewer than 8: a
// power of two, which the tag array's set mask needs.
func l1iSets(div int) int { return max(8, floorPow2(64/max(1, div/2))) }

// fetch returns the stall for the block containing ip (0 on hit).
func (ic *icache) fetch(ip uint64) uint64 {
	ic.stats.Fetches++
	block := ip >> 6
	if ic.tags.Lookup(block) {
		return 0
	}
	ic.stats.Misses++
	ic.tags.Insert(block)
	return ic.missPenalty
}

// dynamicClip implements the paper's §5.3 "Dynamic CLIP" future-work
// extension: CLIP's filtering is bypassed while per-core DRAM bandwidth is
// ample (low utilization) and re-engaged under pressure, with hysteresis.
// CLIP keeps training either way so re-engagement is instant.
type dynamicClip struct {
	active       bool
	activeCycles uint64
	totalCycles  uint64
}

const (
	dynClipOnUtil  = 0.55 // engage filtering above this utilization
	dynClipOffUtil = 0.35 // release below this
	dynClipEpoch   = 2048 // cycles between utilization samples
)

// update samples utilization once per epoch.
func (d *dynamicClip) update(cycle uint64, util float64) {
	if cycle%dynClipEpoch == 0 {
		if util >= dynClipOnUtil {
			d.active = true
		} else if util <= dynClipOffUtil {
			d.active = false
		}
	}
	d.totalCycles++
	if d.active {
		d.activeCycles++
	}
}

// nextSample returns the next utilization-sample cycle >= now.
func (d *dynamicClip) nextSample(now uint64) uint64 {
	return (now + dynClipEpoch - 1) / dynClipEpoch * dynClipEpoch
}

// advance bulk-applies n cycles of engaged-time accounting for a skipped
// window that contains no sample boundary (the simulation loop folds
// nextSample into its horizon), during which the active flag cannot change.
func (d *dynamicClip) advance(n uint64) {
	d.totalCycles += n
	if d.active {
		d.activeCycles += n
	}
}

// ActiveFraction reports how long filtering was engaged.
func (d *dynamicClip) ActiveFraction() float64 {
	return stats.Ratio(d.activeCycles, d.totalCycles)
}

// resetCounters restarts the engaged-time accounting (warmup barrier).
func (d *dynamicClip) resetCounters() {
	d.activeCycles, d.totalCycles = 0, 0
}
