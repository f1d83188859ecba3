// Package tlb models the address-translation hierarchy of the baseline
// (Table 3): a 64-entry 4-way L1 DTLB with 1-cycle latency, a 2048-entry
// 16-way shared L2 TLB (STLB) with 8-cycle latency, and a fixed-cost page
// walk for STLB misses. Translation latency is added in front of the L1D
// access, which is where it bites loads.
package tlb

import (
	"fmt"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/stats"
)

// Config sizes one TLB level.
type Config struct {
	Entries int
	Ways    int
	Latency uint64
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("tlb: bad geometry %+v", c)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("tlb: sets (%d) must be a power of two", sets)
	}
	return nil
}

// HierarchyConfig combines the paper's DTLB + STLB + page walker.
type HierarchyConfig struct {
	DTLB Config
	STLB Config
	// WalkLatency is the page-table walk cost on an STLB miss (cycles).
	WalkLatency uint64
}

// DefaultConfig matches Table 3. The DTLB does NOT scale with div: its job
// is covering the *concurrent* working pages (one per active stream), and
// stream counts are a workload property, not a capacity one — an 8-entry
// DTLB would thrash on any 9-stream loop regardless of cache scaling. Only
// the reach-oriented STLB scales (with a generous floor).
func DefaultConfig(div int) HierarchyConfig {
	if div < 1 {
		div = 1
	}
	d := Config{Entries: 64, Ways: 4, Latency: 1}
	stlbEntries := 2048 / div
	if stlbEntries < 256 {
		stlbEntries = 256
	}
	// Round sets to a power of two at 16 ways.
	sets := stlbEntries / 16
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	s := Config{Entries: p * 16, Ways: 16, Latency: 8}
	return HierarchyConfig{DTLB: d, STLB: s, WalkLatency: 60}
}

// Stats counts translation outcomes.
type Stats struct {
	Accesses  uint64
	DTLBHits  uint64
	STLBHits  uint64
	Walks     uint64
	WalkDelay stats.LatencyAcc
}

// DTLBHitRate returns first-level hit rate.
func (s *Stats) DTLBHitRate() float64 { return stats.Ratio(s.DTLBHits, s.Accesses) }

// TagArray is a set-associative tag array with LRU replacement: each TLB
// level, and the L1I of internal/sim, is one. A key's set is a hash of the
// key; a fill takes the set's first invalid way, else its oldest stamp; and
// every hit and fill advances the clock that stamps the entry it touched.
//
// The entries are two columns carved from one slab: tags holds key<<1|1
// for a valid entry and zero for an invalid one (as the caches' tags do),
// stamps the clock value of the entry's last touch. Keys are below 2^63.
type TagArray struct {
	sets, ways int
	tags       []uint64
	stamps     []uint64
	clock      uint64
}

// TagArrayWords returns the words a sets x ways array's columns take.
func TagArrayWords(sets, ways int) int { return 2 * sets * ways }

// CarveTagArray returns an empty array of sets x ways entries whose two
// columns are carved from *slab (mem.Carve), which must be zero there; sets
// must be a power of two.
func CarveTagArray(slab *[]uint64, sets, ways int) TagArray {
	n := sets * ways
	return TagArray{sets: sets, ways: ways, tags: mem.Carve(slab, n), stamps: mem.Carve(slab, n)}
}

// base returns the index of the first entry of key's set. The set index is
// hashed: synthetic workloads allocate their arrays, and lay out their code,
// at large aligned boundaries, so plain low-bit indexing piles every
// concurrent stream's page (or every hot block) into one set. Hashing
// spreads them the way real (higher-associativity) structures and unaligned
// heaps do.
func (t *TagArray) base(key uint64) int {
	return int(mem.Mix64(key)&uint64(t.sets-1)) * t.ways
}

// find returns the index of key's entry, or -1 when it is not resident.
func (t *TagArray) find(key uint64) int {
	base := t.base(key)
	tag := key<<1 | 1
	for w, v := range t.tags[base : base+t.ways] {
		if v == tag {
			return base + w
		}
	}
	return -1
}

// Lookup probes for key; a hit updates its recency.
func (t *TagArray) Lookup(key uint64) bool {
	i := t.find(key)
	if i < 0 {
		return false
	}
	t.clock++
	t.stamps[i] = t.clock
	return true
}

// Insert installs key, evicting the set's least recently used entry.
func (t *TagArray) Insert(key uint64) {
	base := t.base(key)
	victim := base
	for w := base; w < base+t.ways; w++ {
		if t.tags[w] == 0 {
			victim = w
			break
		}
		if t.stamps[w] < t.stamps[victim] {
			victim = w
		}
	}
	t.clock++
	t.tags[victim] = key<<1 | 1
	t.stamps[victim] = t.clock
}

// Hierarchy is one core's DTLB backed by the shared STLB.
type Hierarchy struct {
	cfg   HierarchyConfig
	dtlb  TagArray
	stlb  TagArray // shared in hardware; modelled per-core for simplicity
	stats Stats
}

// New builds a translation hierarchy: the one-member case of NewArray.
func New(cfg HierarchyConfig) (*Hierarchy, error) {
	hs, err := NewArray(nil, cfg, 1)
	if err != nil {
		return nil, err
	}
	return &hs[0], nil
}

// NewArray builds n translation hierarchies of one configuration, every
// level's columns carved from one slab, taken from a (mem.Make).
func NewArray(a *mem.Arena, cfg HierarchyConfig, n int) ([]Hierarchy, error) {
	if err := cfg.DTLB.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.STLB.Validate(); err != nil {
		return nil, err
	}
	dSets, sSets := cfg.DTLB.Entries/cfg.DTLB.Ways, cfg.STLB.Entries/cfg.STLB.Ways
	hs := mem.Make[Hierarchy](a, n)
	slab := mem.Make[uint64](a, n*(TagArrayWords(dSets, cfg.DTLB.Ways)+TagArrayWords(sSets, cfg.STLB.Ways)))
	for i := range hs {
		hs[i] = Hierarchy{cfg: cfg,
			dtlb: CarveTagArray(&slab, dSets, cfg.DTLB.Ways),
			stlb: CarveTagArray(&slab, sSets, cfg.STLB.Ways)}
	}
	return hs, nil
}

// MustNew panics on config errors.
func MustNew(cfg HierarchyConfig) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Stats returns live counters.
func (h *Hierarchy) Stats() *Stats { return &h.stats }

// DTLBResident reports, without touching any state, whether Translate(addr)
// would hit the first-level TLB.
func (h *Hierarchy) DTLBResident(addr mem.Addr) bool {
	return h.dtlb.find(addr.PageID()) >= 0
}

// RepeatHits applies the state change of n back-to-back Translate(addr)
// calls that all hit the DTLB — the bulk form of a refused load retrying its
// translation every cycle: n accesses, n hits, and the entry's LRU stamp on
// the clock's final value. addr's page must be DTLB-resident.
func (h *Hierarchy) RepeatHits(addr mem.Addr, n uint64) {
	i := h.dtlb.find(addr.PageID())
	if i < 0 {
		// The caller broke the contract: clipdebug reports it, a release
		// build charges nothing rather than crash.
		if invariant.Enabled {
			invariant.Check(false, "tlb: %d repeat hits on non-resident page %x", n, addr.PageID())
		}
		return
	}
	h.stats.Accesses += n
	h.stats.DTLBHits += n
	h.dtlb.clock += n
	h.dtlb.stamps[i] = h.dtlb.clock
}

// Translate returns the extra cycles the access at addr spends on address
// translation: 0 for a DTLB hit (the 1-cycle DTLB runs in parallel with the
// L1D tag lookup), the STLB latency on a DTLB miss, and STLB latency plus
// the page-walk cost on an STLB miss. The translation is installed on the
// way back, as hardware does.
func (h *Hierarchy) Translate(addr mem.Addr) uint64 {
	page := addr.PageID()
	h.stats.Accesses++
	if h.dtlb.Lookup(page) {
		h.stats.DTLBHits++
		return 0
	}
	if h.stlb.Lookup(page) {
		h.stats.STLBHits++
		h.dtlb.Insert(page)
		return h.cfg.STLB.Latency
	}
	h.stats.Walks++
	delay := h.cfg.STLB.Latency + h.cfg.WalkLatency
	h.stats.WalkDelay.Add(delay)
	h.stlb.Insert(page)
	h.dtlb.Insert(page)
	return delay
}
