package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"clip/internal/criticality"
	"clip/internal/mem"
	"clip/internal/prefetch"
	"clip/internal/snapshot"
	"clip/internal/throttle"
)

// System checkpointing (DESIGN.md §12). SaveState serializes the complete
// dynamic state of a system mid-run; LoadState restores it into a freshly
// constructed System of a compatible configuration. "Compatible" is split in
// two:
//
//   - The state fingerprint — everything that shapes serialized state or the
//     deterministic input stream (workloads, seeds, geometry) — must match
//     exactly, or LoadState refuses with ErrConfigMismatch.
//
//   - Mechanisms (prefetcher, CLIP, criticality predictors, throttlers,
//     Hermes, DSPatch, dynamic CLIP) are carried in skippable sections. A
//     matching receiver restores them; a receiver configured differently
//     skips the saved section and keeps its own mechanism cold. This is what
//     lets one warmed mechanism-free image fork into every variant of a
//     figure point (the warm-fork path in internal/runner).
//
// The equivalence matrix in checkpoint_test.go pins the contract: running N
// cycles straight is byte-identical to running k cycles, saving, restoring
// into a fresh System and running the remaining N-k.

// ErrConfigMismatch reports a snapshot whose state fingerprint differs from
// the receiving system's configuration.
var ErrConfigMismatch = errors.New("sim: snapshot was taken under an incompatible configuration")

// stateFingerprint captures every configuration field that shapes serialized
// state geometry or the deterministic input stream. Mechanism choices are
// deliberately absent (they live in skippable sections), as is DisableSkip,
// whose results are byte-identical by the equivalence tests.
func (c *Config) stateFingerprint() string {
	// The workloads are joined by hand: %v would box each name, and the
	// bytes are %v's.
	return fmt.Sprintf("w=[%s] i=%d wu=%d cpu=%+v div=%d l1d=%+v l2=%+v llc=%+v ch=%d tr=%d seed=%d",
		strings.Join(c.Workload, " "), c.InstrPerCore, c.WarmupInstr, c.CPU, c.ScaleDivisor,
		c.L1D, c.L2, c.LLC, c.Channels, c.TransferCycles, c.Seed)
}

// fingerprint returns the configuration's state fingerprint, which every
// image the system saves or loads carries. It is formatted on first use and
// kept, so a fork that loads and saves pays for it once.
func (s *System) fingerprint() string {
	if s.fp == "" {
		s.fp = s.cfg.stateFingerprint()
	}
	return s.fp
}

// mechSet describes which mechanism sections a system carries.
type mechSet struct {
	pf      string
	dspatch bool
	clip    bool
	crit    string
	scored  bool
	thr     string
	hermes  bool
	dyn     bool
}

func (c *Config) mechSet() mechSet {
	return mechSet{
		pf:      c.Prefetcher,
		dspatch: c.DSPatch,
		clip:    c.CLIP != nil,
		crit:    c.CritPredictor,
		scored:  c.ScorePredictors,
		thr:     c.Throttler,
		hermes:  c.Hermes,
		dyn:     c.DynamicCLIP,
	}
}

// state walks the image header's mechanism list.
func (m *mechSet) state(c *snapshot.Coder) {
	c.String(&m.pf)
	c.Bool(&m.dspatch)
	c.Bool(&m.clip)
	c.String(&m.crit)
	c.Bool(&m.scored)
	c.String(&m.thr)
	c.Bool(&m.hermes)
	c.Bool(&m.dyn)
}

// section is one tagged, length-prefixed part of the image.
type section struct {
	tag     string
	present bool // the image carries it
	match   bool // the receiver restores it; otherwise it skips it and stays cold
	walk    func(*System, *snapshot.Coder)
}

// sections is the image's layout: which sections an image written under the
// saved mechanisms carries, in stream order, and which of them a receiver
// with the mechanisms it has restores. Saving asks with saved == have.
func sections(saved, have mechSet) [8]section {
	pfMatch := saved.pf == have.pf && saved.dspatch == have.dspatch
	return [8]section{
		{"base", true, true, (*System).baseState},
		{"pf", true, pfMatch, (*System).pfState},
		{"clip", saved.clip, have.clip, (*System).clipState},
		{"crit", saved.crit != "", saved.crit == have.crit, (*System).critState},
		{"scored", saved.scored, have.scored, (*System).scoredState},
		// Throttlers bind the prefetcher, so they only restore alongside a
		// matching pf.
		{"throttle", saved.thr != "", saved.thr == have.thr && pfMatch, (*System).throttleState},
		{"hermes", saved.hermes, have.hermes, (*System).hermesState},
		{"dynclip", saved.dyn, have.dyn, (*System).dynClipState},
	}
}

// SaveState serializes the system's complete dynamic state.
func (s *System) SaveState() ([]byte, error) {
	// The image holds every component's clock and counters as of the last
	// simulated cycle, which sleepers have not been charged up to yet.
	s.settleAll()
	c := snapshot.NewSaver(s.imageSizeHint())
	fp := s.fingerprint()
	c.String(&fp)
	m := s.cfg.mechSet()
	m.state(c)
	for _, sec := range sections(m, m) {
		if sec.present {
			c.Section(sec.tag, func() { sec.walk(s, c) })
		}
	}
	image, err := c.Bytes()
	if err != nil {
		return nil, err
	}
	if len(image) < cap(image)*10/13 {
		// The estimate was far over: do not hand a caller that keeps the
		// image (runner.Cache memoises warm-up images) the unused tail.
		image = slices.Clone(image)
	}
	s.imageLen = len(image)
	return image, nil
}

// imageSizeHint sizes SaveState's buffer: the length of the last image this
// system loaded or saved (an image's length depends on configuration and
// queue occupancies, so it barely moves), else an estimate. Packed columns
// make a fresh system's image depend on how much of its state is nonzero:
// on the bench geometries the three caches of a tile encode to 1.3 bytes a
// slab word fresh, 3.5 after a 2k-instruction warm-up, 5 after 8k and 7 at
// 50k, and everything else to 9 KB a core fresh and 18–22 KB after a
// warm-up. The estimate, 4 bytes a slab word, 22 KB a core and 32 KB for
// the shared rest, is the image of a warm-up of a few thousand
// instructions: a much shorter one is copied out of the buffer by
// SaveState, a longer one grows the buffer once. TestImageSizeHint pins
// the returned capacity.
func (s *System) imageSizeHint() int {
	if s.imageLen > 0 {
		return s.imageLen + s.imageLen/64
	}
	words := 0
	for i := range s.cores {
		words += s.l1d[i].SlabWords() + s.l2[i].SlabWords() + s.llc[i].SlabWords()
	}
	return 4*words + len(s.cores)*22<<10 + 32<<10
}

// LoadState restores a SaveState stream into s, which must have been built by
// NewSystem under a configuration with the same state fingerprint. Mechanism
// sections restore only into a matching mechanism; mismatched sections are
// skipped and the receiver's mechanism starts cold (the warm-fork contract).
func (s *System) LoadState(data []byte) error {
	c, err := snapshot.NewLoader(data)
	if err != nil {
		return err
	}
	var fp string
	if c.String(&fp); c.Err() == nil && fp != s.fingerprint() {
		return fmt.Errorf("%w: snapshot %q vs receiver %q",
			ErrConfigMismatch, fp, s.fingerprint())
	}
	var saved mechSet
	saved.state(c)
	if err := c.Err(); err != nil {
		return err
	}
	thrLoaded := false
	for _, sec := range sections(saved, s.cfg.mechSet()) {
		switch {
		case !sec.present:
		case sec.match:
			c.Section(sec.tag, func() { sec.walk(s, c) })
			thrLoaded = thrLoaded || sec.tag == "throttle"
		default:
			if got := c.SkipSection(); c.Err() == nil && got != sec.tag {
				c.Fail(fmt.Errorf("sim: snapshot section %q, expected %q: %w",
					got, sec.tag, snapshot.ErrCorrupt))
			}
		}
	}
	if err := c.Done(); err != nil {
		return err
	}
	if s.cfg.Throttler != "" && !thrLoaded {
		// A freshly-attached throttler epochs from the next boundary after
		// the restored cycle (a cold run epochs from the first boundary).
		s.nextThrottle = (s.cycle/throttleEpoch + 1) * throttleEpoch
	}
	s.coresTicked = 0
	s.imageLen = len(data)
	s.stall = ""
	s.wakeAll()
	return nil
}

// baseState walks everything outside the mechanism sections: cores, caches,
// interconnect, DRAM, front-end models and the simulation-level queues and
// counters.
func (s *System) baseState(c *snapshot.Coder) {
	c.U64(&s.cycle)
	c.U64(&s.measureStart)
	c.Bool(&s.warmed)
	c.Int(&s.finished)
	if c.Loading() && (s.finished < 0 || s.finished > len(s.cores)) {
		c.Corrupt("sim: finished count %d of %d cores", s.finished, len(s.cores))
		return
	}
	for _, core := range s.cores {
		core.State(c)
	}
	for _, l1 := range s.l1d {
		l1.State(c)
	}
	for _, l2 := range s.l2 {
		l2.State(c)
	}
	for _, slice := range s.llc {
		slice.State(c)
	}
	s.mesh.State(c)
	s.dram.State(c)
	for _, p := range s.ports {
		p.state(c)
	}
	s.dramPending.State(c, func(resp *mem.Response) int { return s.dram.ChannelOf(resp.Req.Addr) })
	for i := range s.llcRetry {
		s.llcRetry[i].State(c, mem.RequestBytes, func(q *mem.Request) { q.State(c) })
	}
	s.bypassState(c)
	s.hermesHold.State(c, func(*mem.Response) int { return 0 })
	for i := range s.epochPrev {
		e := &s.epochPrev[i]
		c.U64(&e.pfFills)
		c.U64(&e.pfUseful)
		c.U64(&e.pfLate)
		c.U64(&e.pfPolluting)
		c.U64(&e.misses)
		c.U64(&e.retired)
	}
	c.U64s(s.pfGenerated)
	c.U64s(s.pfIssued)
	for i := range s.pfQ {
		s.pfQ[i].State(c, mem.RequestBytes+1, func(e *pfEntry) {
			e.req.State(c)
			c.Bool(&e.toL2)
		})
	}
	for i := range s.stage {
		s.stage[i].dramQ.State(c, mem.RequestBytes, func(q *mem.Request) { q.State(c) })
	}
}

// bypassState walks the in-flight direct-to-DRAM loads as one list of
// (key, count) pairs in (core, line) order, each key core<<48 ^ line.
func (s *System) bypassState(c *snapshot.Coder) {
	if !c.Loading() {
		total := 0
		for _, b := range s.bypass {
			total += len(b)
		}
		c.Len("sim: bypass entries", total, snapshot.MaxLen, 8+8)
		for i, b := range s.bypass {
			for _, e := range b {
				k, v := uint64(i)<<48^e.line, e.n
				c.U64(&k)
				c.Int(&v)
			}
		}
		return
	}
	n := c.Len("sim: bypass entries", 0, snapshot.MaxLen, 8+8)
	for i := range s.bypass {
		s.bypass[i] = s.bypass[i][:0]
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var k uint64
		var v int
		c.U64(&k)
		c.Int(&v)
		if core := k >> 48; core < uint64(len(s.bypass)) {
			s.bypass[core].add(k^core<<48, v)
		} else if c.Err() == nil {
			c.Fail(fmt.Errorf("sim: bypass entry of core %d on %d cores: %w", core, len(s.bypass), snapshot.ErrCorrupt))
		}
	}
}

// pfState walks the per-core prefetchers (through their DSPatch wrapper when
// one is configured).
func (s *System) pfState(c *snapshot.Coder) {
	for i := range s.mech {
		if m := &s.mech[i]; m.dspatch != nil {
			m.dspatch.State(c)
		} else {
			prefetch.State(c, m.pf)
		}
	}
}

func (s *System) clipState(c *snapshot.Coder) {
	for i := range s.mech {
		s.mech[i].clip.State(c)
	}
}

func (s *System) critState(c *snapshot.Coder) {
	for i := range s.mech {
		criticality.State(c, s.mech[i].crit)
	}
}

func (s *System) scoredState(c *snapshot.Coder) {
	for i := range s.mech {
		scored := s.mech[i].scored
		if !c.Fixed("sim: scored predictors", len(scored)) {
			return
		}
		for j := range scored {
			criticality.State(c, scored[j].pred)
			scored[j].score.State(c)
		}
	}
}

func (s *System) throttleState(c *snapshot.Coder) {
	c.U64(&s.nextThrottle)
	for i := range s.mech {
		throttle.State(c, s.mech[i].throttler)
	}
}

// hermesState walks each core's predictor and the route of the L1 miss it
// holds, if any.
func (s *System) hermesState(c *snapshot.Coder) {
	for i := range s.mech {
		s.mech[i].hermes.State(c)
		s.stage[i].route.state(c)
	}
}

// state walks a route: whether a refused miss holds one, and if so the route
// and the miss it belongs to.
func (r *hermesRoute) state(c *snapshot.Coder) {
	if c.Bool(&r.live); !r.live {
		*r = hermesRoute{}
		return
	}
	c.Bool(&r.bypass)
	r.req.State(c)
}

// dynClipState walks the dynamic-CLIP engagement state.
func (s *System) dynClipState(c *snapshot.Coder) {
	c.Bool(&s.dynClip.active)
	c.U64(&s.dynClip.activeCycles)
	c.U64(&s.dynClip.totalCycles)
}

// state walks the port's delayed-request queue, its L1I and its TLB.
func (p *corePort) state(c *snapshot.Coder) {
	for i := range snapshot.Slice(c, "sim: port queue", &p.pending, portQueueDepth, mem.RequestBytes+8) {
		p.pending[i].req.State(c)
		c.U64(&p.pending[i].ready)
	}
	p.l1i.tags.State(c)
	c.U64(&p.l1i.stats.Fetches)
	c.U64(&p.l1i.stats.Misses)
	p.tlb.State(c)
}
