package cache

import (
	"math/bits"

	"clip/internal/mem"
)

// Policy is a cache replacement policy over sets x ways line metadata. It is
// a concrete column store rather than an interface: OnHit/OnFill run on
// every access in the lookup hot path, and the per-kind switch below inlines
// where an interface dispatch could not. All metadata lives in two slabs
// carved at construction — one []uint64 for word-granular columns (LRU
// stamps, NRU/Mockingjay per-set way bitmaps) and one []uint8 for byte
// columns (RRPV, signatures) — so a policy touch is a column write, never a
// per-way struct walk.
type Policy struct {
	kind policyKind
	ways int

	// words is the word slab; stamp (LRU, per line) and ref/reused (NRU /
	// Mockingjay, one way-bitmap word per set) are carved from it.
	words []uint64
	stamp []uint64 // LRU: per-line last-touch stamp
	ref   []uint64 // NRU: per-set referenced-way bitmap
	clock uint64

	// bytesSlab holds the byte columns: rrpv (SRRIP/Mockingjay, per line)
	// and sig (Mockingjay, per line).
	bytesSlab []uint8
	rrpv      []uint8
	sig       []uint8

	// Mockingjay-lite: per-set reused-way bitmap plus the signature table.
	reused  []uint64
	mjTable [256]int8 // signature -> reuse confidence
	probe   uint8     // rotating counter for probational inserts
}

type policyKind uint8

const (
	policyLRU policyKind = iota
	policyNRU
	policySRRIP
	policyMockingjay
)

// policyKinds names the supported policies: "lru" (also the empty name),
// "nru", "srrip" (L2 default, Table 3) and "mockingjay" (LLC default — a
// lightweight mimicry of Mockingjay's reuse-distance bypassing built on RRIP
// plus a trigger-signature reuse table; see OnFill).
var policyKinds = map[string]policyKind{
	"": policyLRU, "lru": policyLRU, "nru": policyNRU,
	"srrip": policySRRIP, "mockingjay": policyMockingjay,
}

// columns returns the words and the bytes the kind's columns take in a
// sets x ways cache.
func (k policyKind) columns(sets, ways int) (words, bytes int) {
	lines := sets * ways
	switch k {
	case policyLRU:
		return lines, 0
	case policyNRU:
		return sets, 0
	case policySRRIP:
		return 0, lines
	default: // policyMockingjay
		return sets, 2 * lines
	}
}

// carve sets p up as an empty policy of kind for a sets x ways cache, its
// word and byte slabs carved from words and bytes (mem.Carve).
func (p *Policy) carve(kind policyKind, sets, ways int, words *[]uint64, bytes *[]uint8) {
	nw, nb := kind.columns(sets, ways)
	*p = Policy{kind: kind, ways: ways, words: mem.Carve(words, nw), bytesSlab: mem.Carve(bytes, nb)}
	lines := sets * ways
	switch kind {
	case policyLRU:
		p.stamp = p.words
	case policyNRU:
		p.ref = p.words
	case policySRRIP:
		p.rrpv = p.bytesSlab
	case policyMockingjay:
		p.reused = p.words
		p.rrpv = p.bytesSlab[:lines:lines]
		p.sig = p.bytesSlab[lines:]
	}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
}

const rrpvMax = 3 // 2-bit RRPV (Jaleel et al., ISCA'10)

// OnHit notifies a demand or prefetch hit on (set, way).
func (p *Policy) OnHit(set, way int) {
	switch p.kind {
	case policyLRU:
		p.clock++
		p.stamp[set*p.ways+way] = p.clock
	case policyNRU:
		p.nruSet(set, way)
	case policySRRIP:
		p.rrpv[set*p.ways+way] = 0
	case policyMockingjay:
		p.rrpv[set*p.ways+way] = 0
		p.reused[set] |= 1 << uint(way)
	}
}

// OnFill notifies that (set, way) was filled by req.
func (p *Policy) OnFill(set, way int, req *mem.Request) {
	switch p.kind {
	case policyLRU:
		p.clock++
		p.stamp[set*p.ways+way] = p.clock
	case policyNRU:
		p.nruSet(set, way)
	case policySRRIP:
		// Insert with long re-reference prediction (SRRIP-HP).
		p.rrpv[set*p.ways+way] = rrpvMax - 1
	case policyMockingjay:
		p.mjFill(set, way, req)
	}
}

// Victim picks the way to evict in set (invalid ways are chosen by the
// cache before Victim is consulted, so every way here holds a live line).
func (p *Policy) Victim(set int) int {
	base := set * p.ways
	switch p.kind {
	case policyLRU:
		stamps := p.stamp[base : base+p.ways]
		best, bestStamp := 0, stamps[0]
		for w := 1; w < len(stamps); w++ {
			if s := stamps[w]; s < bestStamp {
				best, bestStamp = w, s
			}
		}
		return best
	case policyNRU:
		// First unreferenced way; 0 when all are referenced (unreachable
		// after nruSet, which clears on saturation — kept for parity with
		// the per-way loop this replaces).
		if un := ^p.ref[set] & waysMask(p.ways); un != 0 {
			return bits.TrailingZeros64(un)
		}
		return 0
	default: // SRRIP backbone, shared by Mockingjay-lite
		rrpv := p.rrpv[base : base+p.ways]
		for {
			for w := 0; w < len(rrpv); w++ {
				if rrpv[w] == rrpvMax {
					return w
				}
			}
			for w := range rrpv {
				rrpv[w]++
			}
		}
	}
}

// waysMask returns the ways-wide all-ones bitmap (ways <= 64 by Validate).
func waysMask(ways int) uint64 {
	if ways == 64 {
		return ^uint64(0)
	}
	return 1<<uint(ways) - 1
}

// nruSet marks (set, way) referenced; when every way is referenced the
// others are cleared, leaving only the toucher marked.
func (p *Policy) nruSet(set, way int) {
	bit := uint64(1) << uint(way)
	r := p.ref[set] | bit
	if r == waysMask(p.ways) {
		r = bit
	}
	p.ref[set] = r
}

// mjFill approximates Mockingjay (Shah, Jain & Lin, HPCA'22), the paper's
// LLC policy, at a fraction of its state: an RRIP backbone plus a sampled
// reuse table indexed by the trigger IP signature. Lines whose signature
// historically shows no reuse are inserted at distant RRPV (near-bypass) —
// in particular unused prefetch streams — which is the property the paper
// relies on ("Mockingjay significantly minimizes prefetcher-caused negative
// interference").
func (p *Policy) mjFill(set, way int, req *mem.Request) {
	idx := set*p.ways + way
	wbit := uint64(1) << uint(way)
	// Feedback for the line being replaced.
	old := p.sig[idx]
	if p.reused[set]&wbit != 0 {
		if p.mjTable[old] < 15 {
			p.mjTable[old]++
		}
	} else if p.mjTable[old] > -16 {
		p.mjTable[old]--
	}
	s := sigOf(req)
	p.sig[idx] = s
	p.reused[set] &^= wbit
	// Predicted dead on arrival: insert at distant RRPV. Demand fills get a
	// 1-in-8 probational normal insert: upper levels filter reuse, so
	// without probation a cold signature whose lines *are* re-requested
	// after L2 eviction could never gather the evidence to recover (a death
	// spiral the sampler in full Mockingjay avoids). Prefetch fills get no
	// probation — bypassing dead prefetch streams is exactly the anti-
	// pollution behaviour the paper relies on.
	dead := p.mjTable[s] < -8
	if dead && req.Type != mem.Prefetch {
		p.probe++
		if p.probe&7 == 0 {
			dead = false
		}
	}
	if dead {
		p.rrpv[idx] = rrpvMax
	} else {
		p.rrpv[idx] = rrpvMax - 1
	}
}

func sigOf(req *mem.Request) uint8 {
	s := mem.Mix64(req.IP ^ uint64(req.Type)<<56)
	return uint8(s)
}
