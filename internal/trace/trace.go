// Package trace provides deterministic synthetic workload generators that
// stand in for the SPEC CPU2017 / GAP / CloudSuite / CVP SimPoint traces the
// paper evaluates on (the real traces are multi-GB artifacts we cannot ship).
//
// A generator emits a decoded instruction stream with stable instruction
// pointers, per-IP memory access patterns, and control flow. The patterns are
// chosen so that the statistics CLIP's mechanism (and every baseline) keys on
// are reproduced: which IPs are spatially regular (prefetchable), which loads
// stall the ROB head, how criticality correlates with branch history, and how
// memory-intensive the workload is relative to the cache hierarchy.
package trace

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"clip/internal/mem"
)

// Op classifies an instruction for the core timing model.
type Op uint8

const (
	OpALU Op = iota
	OpLoad
	OpStore
	OpBranch
)

func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Instr is one decoded instruction handed to the core model. The word-sized
// fields come first, so an Instr is 24 bytes.
type Instr struct {
	IP    uint64
	Addr  mem.Addr // data address for loads/stores
	Op    Op
	Taken bool // actual outcome for branches

	// ExecLat is the execution latency in cycles for non-memory work.
	ExecLat uint8

	// DependsOnPrevLoad serialises this load behind the youngest older load
	// (pointer chasing). Chained loads cannot overlap, killing MLP and making
	// their misses highly critical.
	DependsOnPrevLoad bool
}

// Generator produces an endless deterministic instruction stream.
type Generator interface {
	// Next returns the next instruction. The stream never ends; workloads
	// are replayed until every core finishes its instruction budget.
	Next() Instr
	// Name identifies the workload (paper trace name).
	Name() string
}

// Fill writes the next len(buf) instructions of gen into buf: in place when
// gen is a Cursor, one Next call an instruction otherwise.
func Fill(gen Generator, buf []Instr) {
	if c, ok := gen.(*Cursor); ok {
		c.Fill(buf)
		return
	}
	for i := range buf {
		buf[i] = gen.Next()
	}
}

// PatternClass describes the memory behaviour of one static load site.
type PatternClass uint8

const (
	// PatStream walks line addresses with a constant per-IP delta —
	// perfectly learnable by delta prefetchers (Berti, IPCP-CS).
	PatStream PatternClass = iota
	// PatMultiStride cycles through a small set of deltas — learnable with
	// moderate accuracy (spatial prefetchers do better than pure stride).
	PatMultiStride
	// PatChase performs dependent pointer chasing through a shuffled ring —
	// unpredictable addresses, serialised by data dependence.
	PatChase
	// PatIrregular gathers from random lines in the footprint with no
	// dependence chain (GAP-style gather) — unpredictable but MLP-friendly.
	PatIrregular
	// PatMixed is branch-correlated: when the guarding branch is taken the
	// site streams (cache-friendly); when not taken it gathers from the far
	// footprint (miss, critical). Criticality is dynamic and follows control
	// flow — the behaviour CLIP's critical signature captures and IP-only
	// predictors cannot.
	PatMixed
)

func (p PatternClass) String() string {
	switch p {
	case PatStream:
		return "stream"
	case PatMultiStride:
		return "multistride"
	case PatChase:
		return "chase"
	case PatIrregular:
		return "irregular"
	case PatMixed:
		return "mixed"
	}
	return fmt.Sprintf("PatternClass(%d)", uint8(p))
}

// SiteSpec configures a group of static load sites in the loop body.
type SiteSpec struct {
	Class PatternClass
	// StrideLines for PatStream; the delta set for PatMultiStride is derived
	// from it. Defaults to 1.
	StrideLines int64
	// Weight is the number of distinct load IPs instantiated with this
	// behaviour (real loops have one load IP per array walked), which also
	// sets the class's dynamic frequency.
	Weight int
}

// Config fully describes a synthetic benchmark.
type Config struct {
	Name string
	Seed uint64

	// Sites lists the static load sites of the hot loop.
	Sites []SiteSpec

	// FootprintLines is the number of distinct cache lines the irregular/
	// chase/mixed sites roam over; relative to the LLC it sets the MPKI.
	FootprintLines uint64

	// StreamRegionLines bounds the collective footprint of all streaming
	// sites (each site wraps within its share) before wrapping. Zero means
	// the streams share FootprintLines.
	StreamRegionLines uint64

	// LoadFrac / StoreFrac / BranchFrac are dynamic instruction fractions;
	// the remainder is ALU work.
	LoadFrac, StoreFrac, BranchFrac float64

	// BranchMispredictRate is the app-intrinsic misprediction probability
	// for non-pattern branches.
	BranchMispredictRate float64

	// MixedTakenProb is the probability the guard branch of a PatMixed site
	// is taken (stream direction).
	MixedTakenProb float64

	// ChaseChainFrac: fraction of chase-site loads marked dependent on the
	// previous load (1.0 = fully serialised list traversal).
	ChaseChainFrac float64

	// ExecLatMean is the mean ALU latency (cycles).
	ExecLatMean int

	// IPFootprint scales the number of distinct basic blocks; CloudSuite/CVP
	// use large values so criticality tables alias (paper §4.3).
	IPFootprint int

	// PhasePeriod, when nonzero, alternates between the primary body and a
	// secondary low-memory body every PhasePeriod instructions, exercising
	// CLIP's APC phase detection.
	PhasePeriod uint64

	// AddrOffset shifts the whole data address space; the simulator gives
	// each core a distinct offset so SPEC-rate mixes do not share data.
	AddrOffset mem.Addr

	// WordsPerLine is how many consecutive accesses a streaming site makes
	// within one cache line before advancing. The default of 16 calibrates
	// streaming workloads to SPEC-like L1 line-touch rates (~20 new lines
	// per kilo-instruction); real code revisits a line's words across loop
	// iterations, not just the 8 sequential elements. Chase/irregular sites
	// always touch a line once, like pointer dereferences.
	WordsPerLine int
}

// Validate reports configuration errors early.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("trace: config needs a name")
	}
	if len(c.Sites) == 0 {
		return fmt.Errorf("trace %s: no load sites", c.Name)
	}
	if c.LoadFrac <= 0 || c.LoadFrac+c.StoreFrac+c.BranchFrac >= 1 {
		return fmt.Errorf("trace %s: bad instruction fractions", c.Name)
	}
	if c.FootprintLines == 0 {
		return fmt.Errorf("trace %s: zero footprint", c.Name)
	}
	if n := expandedSites(c.Sites); n > maxSites {
		return fmt.Errorf("trace %s: %d load sites, at most %d", c.Name, n, maxSites)
	}
	return nil
}

// maxSites bounds a configuration's load sites, so a Cursor carries its
// per-site state inline; the registry's largest workload has 9.
const maxSites = 16

// expandedSites counts the load sites specs expand into (Weight each, at
// least one).
func expandedSites(specs []SiteSpec) int {
	n := 0
	for _, spec := range specs {
		n += max(spec.Weight, 1)
	}
	return n
}

// site holds what construction fixes about one expanded load site.
type site struct {
	class   PatternClass
	ip      uint64
	guardIP uint64 // branch IP guarding a PatMixed site
	base    mem.Addr
	deltas  []int64
}

// siteCur is the part of one load site that advances with the stream.
type siteCur struct {
	cursor     uint64 // line offset within region for streams
	chaseAt    uint64 // current position for chase sites
	deltaIdx   int32
	wordRep    int32 // accesses made to the current line (word reuse)
	rowLeft    int32 // lines until the stream's next row/plane boundary
	takenState bool  // last guard outcome
}

// program is everything construction derives from a Config: the unrolled
// loop body, the site constants, the chase table, and the stream's first
// position. It is immutable once built, so any number of Cursors share one.
type program struct {
	cfg       Config
	body      []progSlot
	sites     []site
	chaseTab  []uint32 // shuffled successor table for chase sites
	siteLines uint64   // per-stream-site region share
	words     int      // accesses a streaming site makes to one line
	start     Cursor   // the position construction ends at
}

// Cursor is the Generator New returns: a private position in a shared
// program's stream. It is one allocation — the RNG and the per-site state
// live inside it — and a plain value: assigning a Cursor copies a stream
// position, which is how a consumer marks where a batch started (Tell).
type Cursor struct {
	p          *program
	rng        mem.PRNG
	pc         int
	emit       uint64 // instructions emitted
	inAltPhase bool
	sites      [maxSites]siteCur
}

// progSlot is one slot of the synthetic loop body.
type progSlot struct {
	op      Op
	site    int  // load site index for loads; -1 otherwise
	isGuard bool // branch slot that guards the following mixed site
	guarded int  // site index whose behaviour this guard controls
	ip      uint64
	execLat uint8 // at least 1
	// storeSite: stores reuse site addressing (write the line just loaded).
	storeSite int
}

// maxPrograms bounds the process-wide program cache. A program is the chase
// table (a quarter of the footprint's lines, four bytes each) plus a loop
// body of some dozens to a few thousand slots, so at the simulator's scaled
// caches a full cache is tens of megabytes; past it New builds privately.
const maxPrograms = 256

var (
	programsMu sync.Mutex
	programs   = map[string]*program{}
	programKey []byte // the lookup key, rebuilt in place under programsMu
)

// New returns a Cursor at the start of cfg's stream. The stream is
// deterministic in cfg.Seed and cfg.Name. Programs are cached process-wide,
// so a configuration that recurs — every variant of a figure point runs the
// same streams — is built once.
func New(cfg Config) (*Cursor, error) {
	p, err := programFor(cfg)
	if err != nil {
		return nil, err
	}
	c := new(Cursor)
	*c = p.start
	return c, nil
}

// MustNew is New but panics on config errors; for registry-internal use.
func MustNew(cfg Config) *Cursor {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// programFor returns cfg's program from the cache, building it if needed.
func programFor(cfg Config) (*program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	programsMu.Lock()
	defer programsMu.Unlock()
	programKey = cfg.appendKey(programKey[:0])
	if p, ok := programs[string(programKey)]; ok {
		return p, nil
	}
	p := build(cfg)
	if len(programs) < maxPrograms {
		programs[string(programKey)] = p
	}
	return p, nil
}

// appendKey appends c's program-cache key to b: every field, since Config
// fully determines the program. The name is length-prefixed and every other
// value ends in a separator, so two configs share a key only when they are
// equal; floats go by bit pattern.
func (c *Config) appendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(len(c.Name)), 10)
	b = append(b, ':')
	b = append(b, c.Name...)
	b = appendWord(b, c.Seed)
	b = appendWord(b, uint64(len(c.Sites)))
	for _, s := range c.Sites {
		b = appendWord(b, uint64(s.Class))
		b = appendWord(b, uint64(s.StrideLines))
		b = appendWord(b, uint64(s.Weight))
	}
	b = appendWord(b, c.FootprintLines)
	b = appendWord(b, c.StreamRegionLines)
	for _, f := range [...]float64{c.LoadFrac, c.StoreFrac, c.BranchFrac,
		c.BranchMispredictRate, c.MixedTakenProb, c.ChaseChainFrac} {
		b = appendWord(b, math.Float64bits(f))
	}
	b = appendWord(b, uint64(c.ExecLatMean))
	b = appendWord(b, uint64(c.IPFootprint))
	b = appendWord(b, c.PhasePeriod)
	b = appendWord(b, uint64(c.AddrOffset))
	return appendWord(b, uint64(c.WordsPerLine))
}

// appendWord appends v in hex and a separator.
func appendWord(b []byte, v uint64) []byte {
	return append(strconv.AppendUint(b, v, 16), ',')
}

// build constructs the program of a valid cfg.
func build(cfg Config) *program {
	seed := cfg.Seed
	if seed == 0 {
		seed = mem.HashString(cfg.Name)
	}
	p := &program{cfg: cfg, words: 16}
	if cfg.WordsPerLine > 0 {
		p.words = cfg.WordsPerLine
	}
	rng := mem.NewPRNG(seed)
	p.buildSites(rng)
	p.buildBody(rng)
	p.start.p, p.start.rng = p, *rng
	return p
}

// Name implements Generator.
func (c *Cursor) Name() string { return c.p.cfg.Name }

// Tell copies gen's stream position into at when gen is a Cursor; any other
// generator has no position to tell, and at is left alone.
func Tell(gen Generator, at *Cursor) {
	if c, ok := gen.(*Cursor); ok {
		*at = *c
	}
}

const (
	ipBase     = 0x400000 // synthetic text segment
	dataBase   = 0x10000000
	farOffset  = 0x40000000 // far footprint for irregular accesses
	chaseScale = 4          // chase table entries = footprint/chaseScale
)

func (p *program) buildSites(rng *mem.PRNG) {
	// Chase successor table: a shuffled ring so traversal order is a random
	// permutation (defeats spatial prefetching) but deterministic.
	n := int(p.cfg.FootprintLines / chaseScale)
	if n < 16 {
		n = 16
	}
	p.chaseTab = make([]uint32, n)
	for i := range p.chaseTab {
		p.chaseTab[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p.chaseTab[i], p.chaseTab[j] = p.chaseTab[j], p.chaseTab[i]
	}

	// Each SiteSpec expands into Weight distinct sites: separate load IPs
	// walking separate regions, like the per-array loads of a real loop.
	streamers := 0
	for _, spec := range p.cfg.Sites {
		for k := 0; k < max(spec.Weight, 1); k++ {
			// Load IPs sit compactly in the loop body like real code (two
			// instruction slots per site: the load and its guard).
			idx := len(p.sites)
			st := site{
				class: spec.Class,
				ip:    ipBase + uint64(idx)*8,
				base:  mem.Addr(dataBase + uint64(idx)*0x1000000),
			}
			stride := spec.StrideLines
			if stride == 0 {
				stride = 1
			}
			switch spec.Class {
			case PatMultiStride:
				st.deltas = []int64{stride, stride * 2, stride, stride * 3}
			default:
				st.deltas = []int64{stride}
			}
			st.guardIP = st.ip + 4
			p.start.sites[idx].chaseAt = uint64(rng.Intn(len(p.chaseTab)))
			p.sites = append(p.sites, st)
			switch spec.Class {
			case PatStream, PatMultiStride, PatMixed:
				streamers++
			}
		}
	}
	// Streaming sites share the stream footprint; each wraps in its slice.
	total := p.cfg.StreamRegionLines
	if total == 0 {
		total = p.cfg.FootprintLines
	}
	if streamers > 0 {
		p.siteLines = total / uint64(streamers)
	}
	if p.siteLines < 256 {
		p.siteLines = 256
	}
	for i := range p.sites {
		p.start.sites[i].cursor = uint64(i*977) % p.siteLines // desync streams
	}
}

// buildBody unrolls one loop body. Slots get stable IPs so every dynamic
// execution of a slot reuses the same instruction pointer.
func (p *program) buildBody(rng *mem.PRNG) {
	// One load slot per expanded site per body iteration.
	loadSlots := len(p.sites)
	bodyLen := int(float64(loadSlots) / p.cfg.LoadFrac)
	if bodyLen < loadSlots+2 {
		bodyLen = loadSlots + 2
	}
	storeSlots := int(p.cfg.StoreFrac * float64(bodyLen))
	branchSlots := int(p.cfg.BranchFrac * float64(bodyLen))

	ipBlocks := p.cfg.IPFootprint
	if ipBlocks < 1 {
		ipBlocks = 1
	}

	var body []progSlot
	nextIP := uint64(ipBase + 0x100000)
	takeIP := func() uint64 {
		ip := nextIP
		nextIP += 4
		return ip
	}
	execLat := func() uint8 {
		m := p.cfg.ExecLatMean
		if m <= 0 {
			m = 1
		}
		l := 1 + rng.Intn(2*m)
		if l > 250 {
			l = 250
		}
		return uint8(l)
	}

	// Replicate the body across ipBlocks blocks so large-IP-footprint
	// workloads (CloudSuite/CVP) have thousands of distinct load IPs.
	for blk := 0; blk < ipBlocks; blk++ {
		siteIdx := 0
		loadsPlaced, storesPlaced, branchesPlaced := 0, 0, 0
		for slot := 0; slot < bodyLen; slot++ {
			switch {
			case loadsPlaced < loadSlots && slot%max(1, bodyLen/loadSlots) == 0:
				si := siteIdx % len(p.sites)
				siteIdx++
				// Mixed sites get a guard branch immediately before.
				if p.sites[si].class == PatMixed {
					body = append(body, progSlot{
						op: OpBranch, site: -1, isGuard: true, guarded: si,
						ip: p.sites[si].guardIP + uint64(blk)*0x100000, execLat: 1,
					})
				}
				body = append(body, progSlot{
					op: OpLoad, site: si,
					ip: p.sites[si].ip + uint64(blk)*0x100000, execLat: 1,
				})
				loadsPlaced++
			case storesPlaced < storeSlots && slot%max(1, bodyLen/(storeSlots+1)) == 1:
				body = append(body, progSlot{
					op: OpStore, site: -1, storeSite: storesPlaced % len(p.sites),
					ip: takeIP(), execLat: 1,
				})
				storesPlaced++
			case branchesPlaced < branchSlots && slot%max(1, bodyLen/(branchSlots+1)) == 2:
				body = append(body, progSlot{op: OpBranch, site: -1, guarded: -1, ip: takeIP(), execLat: 1})
				branchesPlaced++
			default:
				body = append(body, progSlot{op: OpALU, site: -1, ip: takeIP(), execLat: execLat()})
			}
		}
		// Loop back-edge branch.
		body = append(body, progSlot{op: OpBranch, site: -1, guarded: -1, ip: takeIP(), execLat: 1})
	}
	p.body = body
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Next implements Generator.
func (c *Cursor) Next() Instr {
	var ins Instr
	c.nextInto(&ins)
	return ins
}

// Fill writes the next len(buf) instructions into buf in place: the stream
// Next returns one instruction at a time.
func (c *Cursor) Fill(buf []Instr) {
	for i := range buf {
		c.nextInto(&buf[i])
	}
}

// nextInto writes every field of the next instruction into ins.
func (c *Cursor) nextInto(ins *Instr) {
	p := c.p
	slot := &p.body[c.pc]
	c.pc++
	if c.pc == len(p.body) {
		c.pc = 0
	}
	c.emit++

	if p.cfg.PhasePeriod > 0 {
		c.inAltPhase = (c.emit/p.cfg.PhasePeriod)%2 == 1
	}

	*ins = Instr{IP: slot.ip, Op: slot.op, ExecLat: slot.execLat}
	switch slot.op {
	case OpBranch:
		if slot.isGuard {
			st := &c.sites[slot.guarded]
			st.takenState = c.rng.Bool(p.cfg.MixedTakenProb)
			ins.Taken = st.takenState
		} else {
			// Loop-style branch: mostly taken with occasional app-intrinsic
			// "hard" outcomes at the configured rate.
			ins.Taken = !c.rng.Bool(p.cfg.BranchMispredictRate)
		}
	case OpLoad:
		addr, dep := c.loadAddr(slot.site)
		ins.Addr, ins.DependsOnPrevLoad = addr+p.cfg.AddrOffset, dep
	case OpStore:
		// Stores write near the site's last address (read-modify-write).
		si := slot.storeSite % len(p.sites)
		ins.Addr = p.sites[si].base + mem.Addr(c.sites[si].cursor*mem.LineBytes) + p.cfg.AddrOffset
	}
}

// loadAddr advances site si and returns its access address (before the
// configuration's AddrOffset, which the caller adds).
func (c *Cursor) loadAddr(si int) (mem.Addr, bool) {
	p := c.p
	s, st := &p.sites[si], &c.sites[si]
	// In the alternate phase the workload turns cache-resident: every site
	// reuses a tiny region (drops MPKI, shifts APC).
	if c.inAltPhase {
		st.cursor = (st.cursor + 1) % 32
		return s.base + mem.Addr(st.cursor*mem.LineBytes), false
	}
	switch s.class {
	case PatStream:
		return c.streamAddr(s, st), false
	case PatMultiStride:
		if int(st.wordRep)+1 < p.words {
			st.wordRep++
		} else {
			st.wordRep = 0
			d := s.deltas[st.deltaIdx]
			st.deltaIdx = (st.deltaIdx + 1) % int32(len(s.deltas))
			st.cursor = wrapAdd(st.cursor, d, p.siteLines)
		}
		return s.base + mem.Addr(st.cursor*mem.LineBytes) + mem.Addr(st.wordRep*8), false
	case PatChase:
		st.chaseAt = uint64(p.chaseTab[st.chaseAt%uint64(len(p.chaseTab))])
		addr := farOffset + mem.Addr((st.chaseAt*chaseScale%p.cfg.FootprintLines)*mem.LineBytes)
		dep := c.rng.Bool(p.cfg.ChaseChainFrac)
		return addr, dep
	case PatIrregular:
		line := c.rng.Uint64() % p.cfg.FootprintLines
		return farOffset + mem.Addr(line*mem.LineBytes), false
	case PatMixed:
		if st.takenState {
			return c.streamAddr(s, st), false
		}
		line := c.rng.Uint64() % p.cfg.FootprintLines
		return farOffset + mem.Addr(line*mem.LineBytes), true
	}
	return s.base, false
}

func (c *Cursor) streamAddr(s *site, st *siteCur) mem.Addr {
	p := c.p
	// Sequential word accesses reuse the line before advancing by the delta,
	// like real streaming code walking 8-byte elements.
	if int(st.wordRep)+1 < p.words {
		st.wordRep++
	} else {
		st.wordRep = 0
		// Row/plane boundaries: stencil-style code streams a row of the
		// array, then jumps to the next row at a far offset. The jump makes
		// the last few delta-prefetches of each row overrun the boundary,
		// which is what caps real stream-prefetch accuracy near the paper's
		// 83% for Berti.
		if st.rowLeft <= 0 {
			st.rowLeft = 16 + int32(c.rng.Intn(32))
			st.cursor = c.rng.Uint64() % p.siteLines
		} else {
			st.rowLeft--
			st.cursor = wrapAdd(st.cursor, s.deltas[0], p.siteLines)
		}
	}
	return s.base + mem.Addr(st.cursor*mem.LineBytes) + mem.Addr(st.wordRep*8)
}

func wrapAdd(cur uint64, delta int64, mod uint64) uint64 {
	v := int64(cur) + delta
	m := int64(mod)
	v %= m
	if v < 0 {
		v += m
	}
	return uint64(v)
}
