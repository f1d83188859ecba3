// Package core implements CLIP — the paper's contribution: a two-stage
// critical-and-accurate load predictor that gates hardware prefetching under
// constrained DRAM bandwidth (Panda, MICRO'23, §4).
//
// Stage I (criticality): a criticality filter shortlists trigger IPs whose
// loads stall the head of the ROB while being serviced by L2/LLC/DRAM, and a
// criticality predictor indexed by the *critical signature* — a hash of the
// IP, the load's line address, the global conditional branch history of the
// last 32 branches and the global criticality history of the last 32 loads —
// predicts the dynamic, per-address criticality of future prefetches.
//
// Stage II (accuracy): a 64-entry utility buffer (CAM of recent prefetch
// address / trigger IP pairs) measures per-IP prefetch hit rate each
// exploration window (1024 L1D misses); only IPs above a 90% per-IP hit rate
// keep prefetching.
//
// A prefetch survives only if its trigger IP is critical-and-accurate and
// the criticality predictor confirms the specific address; surviving
// prefetches carry a criticality flag that the NoC and DRAM controller
// honour. Everything else is dropped before allocating an L1 MSHR.
package core

import (
	"fmt"
	"math/bits"

	"clip/internal/cpu"
	"clip/internal/mem"
	"clip/internal/prefetch"
	"clip/internal/stats"
	"clip/internal/table"
)

// Config parameterises CLIP. The zero value is not valid; use DefaultConfig,
// which matches Table 2 of the paper. Sensitivity studies (Figure 18) and
// the design-choice ablations (§4.2) sweep these fields.
type Config struct {
	FilterSets, FilterWays       int // criticality filter: 32 x 4 = 128 entries
	PredictorSets, PredictorWays int // criticality predictor: 128 x 4 = 512
	UtilityEntries               int // utility buffer CAM: 64

	CritCountThreshold uint8   // "four provides the sweet spot" (§4.1 fn 1)
	HitRateThreshold   float64 // per-IP prefetch hit rate gate: 0.90

	ExplorationWindow uint64 // L1D misses per window: 1024

	APCWindows   int     // windows averaged for phase detection: 16
	APCThreshold float64 // relative APC change that flags a phase: 0.15

	// UseSignature selects critical-signature indexing; false degrades the
	// predictor to IP-only indexing (the ablation the paper reports hurts
	// accuracy).
	UseSignature bool
	// UseAccuracyStage enables Stage II; false keeps only criticality
	// filtering (the paper attributes 77.5% of the benefit to Stage I).
	UseAccuracyStage bool
	// PageMode keys the filter on the load's page instead of its IP — the
	// paper's adaptation for non-IP L2 prefetchers ("the IP hit rate is
	// replaced by the page hit rate").
	PageMode bool

	// CriticalityLevel is the minimum service level that makes a stalling
	// load critical: L2 for an L1 prefetcher, LLC when CLIP guards an L2
	// prefetcher.
	CriticalityLevel mem.Level
}

// CLIP parameters that no configuration varies: Table 2's widths and the
// exploration quota.
const (
	critCountBits  = 2  // criticality count width
	counterBits    = 3  // predictor saturating counter width
	branchHistBits = 32 // branch history length in the signature
	critHistBits   = 32 // criticality history length in the signature

	critCountMax = 1<<critCountBits - 1
	counterMax   = 1<<counterBits - 1
	counterInit  = 1 << (counterBits - 1) // a k-bit counter starts at half

	// exploreQuota issues the first prefetches of a criticality-qualified
	// IP each window even when its accuracy bit is off, so the per-IP hit
	// rate keeps being measured (exploration vs. exploitation).
	exploreQuota = 8
)

// DefaultConfig returns the paper's configuration (Table 2).
func DefaultConfig() Config {
	return Config{
		FilterSets: 32, FilterWays: 4,
		PredictorSets: 128, PredictorWays: 4,
		UtilityEntries:     64,
		CritCountThreshold: 3, // 2-bit counter saturates at 3 = the 4th stall
		HitRateThreshold:   0.90,
		ExplorationWindow:  1024,
		APCWindows:         16,
		APCThreshold:       0.15,
		UseSignature:       true,
		UseAccuracyStage:   true,
		CriticalityLevel:   mem.LevelL2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FilterSets <= 0 || c.FilterWays <= 0 ||
		c.PredictorSets <= 0 || c.PredictorWays <= 0 {
		return fmt.Errorf("core: non-positive table sizes in %+v", c)
	}
	if c.FilterSets&(c.FilterSets-1) != 0 || c.PredictorSets&(c.PredictorSets-1) != 0 {
		return fmt.Errorf("core: table sets must be powers of two")
	}
	if c.HitRateThreshold <= 0 || c.HitRateThreshold > 1 {
		return fmt.Errorf("core: hit rate threshold %v out of (0,1]", c.HitRateThreshold)
	}
	if c.ExplorationWindow == 0 {
		return fmt.Errorf("core: zero exploration window")
	}
	return nil
}

// Scale returns a copy of the config with both tables scaled by factor
// (0.25, 0.5, 2, 4 in Figure 18). Set counts scale; ways stay fixed.
func (c Config) Scale(factor float64) Config {
	scale := func(sets int) int {
		v := int(float64(sets) * factor)
		// round to power of two, min 1
		p := 1
		for p*2 <= v {
			p *= 2
		}
		return p
	}
	c.FilterSets = scale(c.FilterSets)
	c.PredictorSets = scale(c.PredictorSets)
	return c
}

// DropReason classifies why CLIP dropped a prefetch.
type DropReason int

const (
	// DropNotShortlisted: trigger IP absent from the criticality filter.
	DropNotShortlisted DropReason = iota
	// DropLowCritCount: IP present but below the criticality count threshold.
	DropLowCritCount
	// DropInaccurateIP: IP critical but its per-IP hit rate bit is off.
	DropInaccurateIP
	// DropPredictorMiss: no criticality-predictor entry for the signature.
	DropPredictorMiss
	// DropLowConfidence: predictor counter MSB is zero.
	DropLowConfidence
	nDropReasons
)

// Stats holds CLIP's observable counters.
type Stats struct {
	Allowed      uint64
	Explored     uint64 // allowed under the exploration quota
	Dropped      [int(nDropReasons)]uint64
	PhaseResets  uint64
	Windows      uint64
	CritInserts  uint64 // criticality filter training events
	UtilityHits  uint64
	PredTrainInc uint64
	PredTrainDec uint64

	// PredScore measures CLIP's critical-load prediction quality against
	// ground truth (Figures 13/14).
	PredScore struct {
		TruePos, FalsePos, FalseNeg, TrueNeg uint64
	}
}

// TotalDropped sums drops across reasons.
func (s *Stats) TotalDropped() uint64 {
	var t uint64
	for _, d := range s.Dropped {
		t += d
	}
	return t
}

// PredictionAccuracy is the paper's accuracy metric (precision over
// predicted-critical loads).
func (s *Stats) PredictionAccuracy() float64 {
	return stats.Ratio(s.PredScore.TruePos, s.PredScore.TruePos+s.PredScore.FalsePos)
}

// PredictionCoverage is the recall over actually-critical loads.
func (s *Stats) PredictionCoverage() float64 {
	return stats.Ratio(s.PredScore.TruePos, s.PredScore.TruePos+s.PredScore.FalseNeg)
}

// filterEntry is one criticality-filter way (Figure 7a).
type filterEntry struct {
	valid      bool
	tag        uint8 // 6-bit IP tag
	critCount  uint8 // 2-bit saturating criticality count
	hitCount   uint8 // 6-bit
	issueCount uint8 // 6-bit
	critAcc    bool  // is-critical-and-accurate
	explored   uint8 // exploration quota used this window (bookkeeping)
}

// predEntry is one criticality-predictor way (Figure 7b).
type predEntry struct {
	valid   bool
	tag     uint8 // 6-bit criticality tag
	counter uint8 // 3-bit saturating counter
	nru     bool
}

// CLIP is one per-core instance.
type CLIP struct {
	cfg Config

	filter []filterEntry
	pred   []predEntry

	// Utility buffer CAM, structure-of-arrays: utilValid schedules the match
	// scan (ascending-bit walk == the old first-match entry loop), utilLine
	// holds the prefetched line ids, utilTrig the triggering load IP (full,
	// for exactness; hardware keys a 6-bit tag).
	utilValid table.Bits
	utilLine  []uint64
	utilTrig  []uint64
	utilPos   int

	// Exploration window state.
	windowMisses   uint64
	windowAccesses uint64
	windowStart    uint64 // cycle of window start
	apcHistory     []float64

	// Mirrors of the core's global history registers, refreshed by the owner
	// (SetHistories) before candidate filtering.
	curBranchHist uint32
	curCritHist   uint32

	// Per-IP observation (statistics only, not modelled hardware): instances
	// vs critical instances, for the static/dynamic split of Figure 15.
	// Insert-only, capped at ipSeenMax; a full table refuses new IPs.
	ipSeen *table.Map[ipObs]

	stats Stats
}

type ipObs struct {
	instances uint64
	critical  uint64
	selected  bool // ever marked critical-and-accurate
}

const ipSeenMax = 1 << 16

// New constructs a CLIP instance: the one-member case of NewArray.
func New(cfg Config) (*CLIP, error) {
	cs, err := NewArray(nil, cfg, 1)
	if err != nil {
		return nil, err
	}
	return &cs[0], nil
}

// NewArray constructs n CLIP instances of one configuration, one per core.
// Their tables are carved from one slab per column type (mem.Carve), the APC
// history (at most APCWindows values) included, and their per-IP
// observation maps start in cells carved likewise. The slabs come from a
// (mem.Make).
func NewArray(a *mem.Arena, cfg Config, n int) ([]CLIP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nFilter, nPred, nUtil := cfg.FilterSets*cfg.FilterWays, cfg.PredictorSets*cfg.PredictorWays, cfg.UtilityEntries
	cs := mem.Make[CLIP](a, n)
	filters := mem.Make[filterEntry](a, n*nFilter)
	preds := mem.Make[predEntry](a, n*nPred)
	words := mem.Make[uint64](a, n*(table.BitWords(nUtil)+2*nUtil))
	nHist := max(0, cfg.APCWindows)
	hist := mem.Make[float64](a, n*nHist)
	seen := table.NewMaps[ipObs](a, n, 0)
	for i := range cs {
		cs[i] = CLIP{
			cfg:       cfg,
			filter:    mem.Carve(&filters, nFilter),
			pred:      mem.Carve(&preds, nPred),
			utilValid: table.CarveBits(&words, nUtil),
			utilLine:  mem.Carve(&words, nUtil),
			utilTrig:  mem.Carve(&words, nUtil),
			// Empty, with the region's end as its capacity.
			apcHistory: mem.Carve(&hist, nHist)[:0],
			ipSeen:     &seen[i],
		}
	}
	return cs, nil
}

// MustNew panics on config errors.
func MustNew(cfg Config) *CLIP {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns live counters.
func (c *CLIP) Stats() *Stats { return &c.stats }

// Config returns the configuration.
func (c *CLIP) Config() Config { return c.cfg }

// key returns the filter key for a load: its IP, or its page in PageMode.
func (c *CLIP) key(ip uint64, addr mem.Addr) uint64 {
	if c.cfg.PageMode {
		return addr.PageID()
	}
	return ip
}

// ---- criticality filter ----

func (c *CLIP) filterIndex(key uint64) (set int, tag uint8) {
	h := mem.Mix64(key)
	set = int(h % uint64(c.cfg.FilterSets))
	tag = uint8((h >> 20) & 0x3f)
	return
}

func (c *CLIP) filterLookup(key uint64) *filterEntry {
	set, tag := c.filterIndex(key)
	base := set * c.cfg.FilterWays
	for w := 0; w < c.cfg.FilterWays; w++ {
		e := &c.filter[base+w]
		if e.valid && e.tag == tag {
			return e
		}
	}
	return nil
}

// filterInsert allocates (or finds) the entry for key, evicting the
// least-frequently-critical way (the paper's LFU-on-crit-count policy).
func (c *CLIP) filterInsert(key uint64) *filterEntry {
	if e := c.filterLookup(key); e != nil {
		return e
	}
	set, tag := c.filterIndex(key)
	base := set * c.cfg.FilterWays
	victim := base
	for w := 0; w < c.cfg.FilterWays; w++ {
		e := &c.filter[base+w]
		if !e.valid {
			victim = base + w
			break
		}
		if e.critCount < c.filter[victim].critCount {
			victim = base + w
		}
	}
	c.filter[victim] = filterEntry{valid: true, tag: tag}
	return &c.filter[victim]
}

// ---- criticality predictor ----

// signature computes the critical signature (§4.2): a hashed bitwise XOR of
// the IP, the virtual address, the global conditional branch history and the
// global criticality history. The address contributes at page granularity:
// the paper's 512-entry predictor relies on nearby addresses from one IP
// aliasing constructively ("we also see a positive correlation, especially
// for load addresses triggered by one IP within a loop", §4.3) — page
// folding realises that correlation while still separating far addresses,
// which line-exact matching cannot do for never-revisited stream data.
func (c *CLIP) signature(ip uint64, addr mem.Addr, branchHist, critHist uint32) uint64 {
	// The registers are branchHistBits and critHistBits wide: all of each
	// enters the signature.
	bh, ch := uint64(branchHist), uint64(critHist)
	if !c.cfg.UseSignature {
		return mem.Mix64(ip)
	}
	// History folding: the youngest outcomes enter exactly (they carry the
	// control-flow context of the trigger, e.g. a guard branch direction);
	// older outcomes enter as a density summary (popcount bucket). Exact
	// 32-bit matching would make train-time and probe-time signatures align
	// only when the global history is bit-identical — with tens of loads in
	// flight the alignment jitters, and the predictor would degenerate to
	// pure aliasing. The folded form recurs across loop iterations, which is
	// what lets one iteration's criticality predict the next's.
	// Branch history: recent outcomes exact (guard directions), older ones
	// as density. Criticality history: a few recent outcomes exact plus the
	// density of the rest — selective enough to separate criticality
	// contexts, recurrent enough to match between train and probe time.
	bhFold := (bh & 0xff) | uint64(bits.OnesCount64(bh>>8))<<8
	chFold := (ch & 0xf) | uint64(bits.OnesCount64(ch>>4))<<4
	return mem.Mix64(ip ^ addr.PageID()<<1 ^ bhFold<<14 ^ chFold<<40)
}

func (c *CLIP) predIndex(sig uint64) (set int, tag uint8) {
	set = int(sig % uint64(c.cfg.PredictorSets))
	tag = uint8((sig >> 24) & 0x3f)
	return
}

func (c *CLIP) predLookup(sig uint64, allocate bool) *predEntry {
	set, tag := c.predIndex(sig)
	base := set * c.cfg.PredictorWays
	for w := 0; w < c.cfg.PredictorWays; w++ {
		e := &c.pred[base+w]
		if e.valid && e.tag == tag {
			e.nru = true
			c.maybeClearNRU(base)
			return e
		}
	}
	if !allocate {
		return nil
	}
	// NRU victim.
	victim := base
	for w := 0; w < c.cfg.PredictorWays; w++ {
		e := &c.pred[base+w]
		if !e.valid {
			victim = base + w
			break
		}
		if !e.nru {
			victim = base + w
			break
		}
	}
	c.pred[victim] = predEntry{valid: true, tag: tag, counter: counterInit, nru: true}
	c.maybeClearNRU(base)
	return &c.pred[victim]
}

func (c *CLIP) maybeClearNRU(base int) {
	all := true
	for w := 0; w < c.cfg.PredictorWays; w++ {
		if !c.pred[base+w].nru {
			all = false
			break
		}
	}
	if all {
		for w := 0; w < c.cfg.PredictorWays; w++ {
			c.pred[base+w].nru = false
		}
	}
}

// msbSet reports counter confidence: most significant bit of the k-bit
// counter.
func (c *CLIP) msbSet(counter uint8) bool {
	return counter >= 1<<(counterBits-1)
}

// ---- training ----

// OnLoadComplete trains CLIP with a finished demand load: Stage I shortlists
// stalling off-L1 loads, and the criticality predictor's counter moves up on
// critical instances, down on hits and non-stalling misses (§4.2).
func (c *CLIP) OnLoadComplete(ev *cpu.LoadEvent) {
	key := c.key(ev.IP, ev.Addr)
	sig := c.signature(ev.IP, ev.Addr, ev.BranchHist, ev.CritHist)
	actual := ev.StalledHead && ev.ServedBy >= c.cfg.CriticalityLevel

	// Score CLIP's own prediction before training (Figures 13/14).
	predicted := c.predictLoad(key, sig)
	switch {
	case predicted && actual:
		c.stats.PredScore.TruePos++
	case predicted && !actual:
		c.stats.PredScore.FalsePos++
	case !predicted && actual:
		c.stats.PredScore.FalseNeg++
	default:
		c.stats.PredScore.TrueNeg++
	}

	obs := c.ipSeen.Get(key)
	if obs == nil && c.ipSeen.Len() < ipSeenMax {
		obs = c.ipSeen.At(key)
	}
	if obs != nil {
		obs.instances++
		if actual {
			obs.critical++
		}
	}

	if actual {
		// Stage I: shortlist the IP, bump its criticality count.
		e := c.filterInsert(key)
		if e.critCount < critCountMax {
			e.critCount++
		}
		c.stats.CritInserts++
	}

	// Criticality predictor training: only loads that missed L1 move the
	// counter up (when they stalled) — L1 hits and non-stalling misses move
	// it down. Hits on lines a prefetch brought in are excluded from the
	// decrement: they are the *success* of criticality-driven prefetching,
	// and punishing them would make the mechanism disable itself.
	if ev.ServedBy >= mem.LevelL2 && ev.StalledHead {
		e := c.predLookup(sig, true)
		if e.counter < counterMax {
			e.counter++
		}
		c.stats.PredTrainInc++
	} else if !ev.WasPrefetchHit {
		if e := c.predLookup(sig, false); e != nil {
			if e.counter > 0 {
				e.counter--
			}
			c.stats.PredTrainDec++
		}
	}
}

// predictLoad evaluates CLIP's criticality prediction for a demand load with
// filter key key and signature sig (used for scoring, mirroring the
// prefetch-time decision).
func (c *CLIP) predictLoad(key, sig uint64) bool {
	e := c.filterLookup(key)
	if e == nil || e.critCount < c.cfg.CritCountThreshold {
		return false
	}
	pe := c.predLookup(sig, false)
	return pe != nil && c.msbSet(pe.counter)
}

// OnAccess observes every L1D demand access: it matches the utility buffer
// (per-IP prefetch hit counting), advances the exploration window on misses,
// and drives APC phase detection.
func (c *CLIP) OnAccess(addr mem.Addr, hit bool, cycle uint64) {
	c.windowAccesses++
	line := addr.LineID()
	// CAM match against recent prefetches: word-wide walk of the valid bitmap
	// (TrailingZeros per word) in the same ascending first-match order as a
	// per-entry scan. This runs on every L1D demand access, so the per-bit
	// iterator overhead matters.
scan:
	for wi, w := range c.utilValid.Words() {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if c.utilLine[i] != line {
				continue
			}
			c.utilValid.Clear(i)
			c.stats.UtilityHits++
			if e := c.filterLookup(c.utilTrig[i]); e != nil && e.hitCount < 63 {
				e.hitCount++
			}
			break scan
		}
	}
	if !hit {
		c.windowMisses++
		if c.windowMisses >= c.cfg.ExplorationWindow {
			c.endWindow(cycle)
		}
	}
}

// endWindow closes an exploration window: re-evaluates per-IP accuracy bits,
// halves counts for hysteresis, and runs APC phase detection.
func (c *CLIP) endWindow(cycle uint64) {
	c.stats.Windows++
	for i := range c.filter {
		e := &c.filter[i]
		if !e.valid {
			continue
		}
		if e.issueCount > 0 {
			rate := float64(e.hitCount) / float64(e.issueCount)
			e.critAcc = e.critCount >= c.cfg.CritCountThreshold &&
				rate >= c.cfg.HitRateThreshold
		}
		// Hysteresis: reset to half of current value (§4.2).
		e.hitCount /= 2
		e.issueCount /= 2
		e.explored = 0
	}

	// APC phase detection (§4.2): accesses per cycle over this window vs.
	// the average of the last APCWindows windows.
	elapsed := cycle - c.windowStart
	if elapsed > 0 {
		apc := float64(c.windowAccesses) / float64(elapsed)
		if len(c.apcHistory) >= c.cfg.APCWindows {
			avg := stats.Mean(c.apcHistory)
			if avg > 0 {
				diff := apc - avg
				if diff < 0 {
					diff = -diff
				}
				if diff/avg > c.cfg.APCThreshold {
					c.phaseReset()
				}
			}
		}
		// Keep the last APCWindows values, shifting in place once full so
		// the history never reallocates.
		if h := c.apcHistory; len(h) < c.cfg.APCWindows {
			c.apcHistory = append(h, apc)
		} else if len(h) > 0 {
			copy(h, h[1:])
			h[len(h)-1] = apc
		}
	}
	c.windowMisses = 0
	c.windowAccesses = 0
	c.windowStart = cycle
}

// phaseReset clears the criticality filter, accuracy tracker and criticality
// predictor on an application phase change; prefetching stops naturally until
// the structures retrain.
func (c *CLIP) phaseReset() {
	for i := range c.filter {
		c.filter[i] = filterEntry{}
	}
	for i := range c.pred {
		c.pred[i] = predEntry{}
	}
	c.utilValid.Reset()
	c.stats.PhaseResets++
}

// ---- the filter decision ----

// Allow decides the fate of a prefetch candidate: (issue?, critical-flag).
// The decision implements Figure 8 steps 3-4: filter -> predictor -> issue
// with criticality flag, or drop before MSHR allocation.
func (c *CLIP) Allow(cand prefetch.Candidate) (bool, bool) {
	key := c.key(cand.TriggerIP, cand.Addr)
	e := c.filterLookup(key)
	if e == nil {
		c.stats.Dropped[DropNotShortlisted]++
		return false, false
	}
	if e.critCount < c.cfg.CritCountThreshold {
		c.stats.Dropped[DropLowCritCount]++
		return false, false
	}

	explore := false
	if c.cfg.UseAccuracyStage && !e.critAcc {
		// Exploration quota: keep measuring a quieted IP.
		if e.explored < exploreQuota {
			explore = true
		} else {
			c.stats.Dropped[DropInaccurateIP]++
			return false, false
		}
	}

	if !explore {
		// Stage I fine-grained check: the criticality predictor must
		// confirm this specific address in its current control-flow context.
		sig := c.sigForCandidate(cand)
		pe := c.predLookup(sig, false)
		if pe == nil {
			c.stats.Dropped[DropPredictorMiss]++
			return false, false
		}
		if !c.msbSet(pe.counter) {
			c.stats.Dropped[DropLowConfidence]++
			return false, false
		}
	}

	// Issue: record in the utility buffer and bump the issue count.
	if e.issueCount < 63 {
		e.issueCount++
	}
	if explore {
		e.explored++
		c.stats.Explored++
	}
	c.utilValid.Set(c.utilPos)
	c.utilLine[c.utilPos] = cand.Addr.LineID()
	c.utilTrig[c.utilPos] = key
	c.utilPos = (c.utilPos + 1) % len(c.utilLine)
	c.stats.Allowed++
	if obs := c.ipSeen.Get(key); obs != nil {
		obs.selected = true
	}
	return true, !explore
}

// sigForCandidate builds the critical signature of a prefetch candidate from
// the mirrored history registers.
func (c *CLIP) sigForCandidate(cand prefetch.Candidate) uint64 {
	return c.signature(cand.TriggerIP, cand.Addr, c.curBranchHist, c.curCritHist)
}

// TableGeometries reports the ipSeen observation map for the storage budget
// (cmd/clipstorage -tables). It is statistics bookkeeping, not modelled
// hardware — CLIP's SRAM structures (filter, predictor, utility buffer) are
// costed by StorageBudget — so the geometry reports live population under a
// 58-bit IP tag plus two counters and a flag.
func (c *CLIP) TableGeometries() []table.Geometry {
	return []table.Geometry{c.ipSeen.Geometry("clip.ipSeen", 58+32+32+1)}
}

// SetHistories lets the owner mirror the core's global branch and
// criticality history registers into CLIP before filtering candidates.
func (c *CLIP) SetHistories(branch, crit uint32) {
	c.curBranchHist, c.curCritHist = branch, crit
}

// CriticalIPCounts returns the number of IPs CLIP selected as critical-and-
// accurate, split into static-critical and dynamic-critical (Figure 15): an
// IP is dynamic when only part of its instances were critical.
func (c *CLIP) CriticalIPCounts() (static, dynamic int) {
	c.ipSeen.Range(func(_ uint64, obs *ipObs) bool {
		if !obs.selected || obs.instances == 0 {
			return true
		}
		rate := float64(obs.critical) / float64(obs.instances)
		if rate >= 0.9 {
			static++
		} else {
			dynamic++
		}
		return true
	})
	return
}
