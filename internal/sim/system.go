package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"clip/internal/cache"
	"clip/internal/core"
	"clip/internal/cpu"
	"clip/internal/criticality"
	"clip/internal/dram"
	"clip/internal/hermes"
	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/noc"
	"clip/internal/throttle"
	"clip/internal/tlb"
	"clip/internal/trace"
)

// System is one assembled simulation instance.
type System struct {
	cfg Config
	// fp is cfg's state fingerprint once an image has been saved or loaded
	// (fingerprint).
	fp string

	cores []*cpu.Core
	l1d   []*cache.Cache
	l2    []*cache.Cache
	llc   []*cache.Cache // one slice per core/node
	mesh  *noc.Mesh
	dram  *dram.DRAM

	ports   []*corePort
	dynClip *dynamicClip

	// mech holds each core's mechanisms (mechanisms.go).
	mech []coreMechs

	// dramPending holds DRAM responses until their DoneCycle, one lane per
	// channel.
	dramPending mem.DueQueue
	// llcRetry holds requests whose LLC slice refused them at NoC delivery.
	llcRetry []mem.Ring[mem.Request]
	// bypass holds each core's in-flight direct-to-DRAM loads.
	bypass []bypassLines
	// hermesHold delays bypassed fills by the on-chip portion Hermes still
	// pays (tag/coherence checks, fill path): the bypass removes the cache
	// *walk* from the DRAM access's start, not the chip from its end.
	hermesHold mem.DueQueue

	epochPrev []epochSnapshot

	// pfGenerated counts prefetch candidates produced by the prefetcher;
	// pfIssued counts those that survived filtering (Figure 16's ratio).
	pfGenerated []uint64
	pfIssued    []uint64

	// pfQ is the per-core prefetch queue (ChampSim's PQ): filtered
	// candidates wait here for cache port/queue space instead of being
	// dropped on first refusal, sustaining prefetch pressure.
	pfQ []mem.Ring[pfEntry]

	cycle        uint64
	measureStart uint64
	attachL2     bool
	// warmed flips at the warmup barrier; it is part of serialized state so
	// a snapshot taken mid-warmup restores into the right loop phase.
	warmed bool

	// skip enables event-horizon cycle skipping (Config.DisableSkip off):
	// only the awake tiles and LLC slices are visited, sleepers are charged in
	// bulk when they wake (awake.go), and the run loop jumps the global clock
	// over windows in which no component has work.
	skip  bool
	awake awakeSets
	// coresTicked counts cores that took a real Tick this cycle.
	coresTicked int
	// finished counts cores whose instruction budget is exhausted,
	// maintained by cpu.Core OnFinished events (no per-cycle scan).
	finished int
	// nextThrottle is the next throttler-epoch deadline (unused when no
	// throttler is configured).
	nextThrottle uint64

	// stage holds each tile's direct-DRAM queue (tile.go).
	stage []tileStage

	// self counts the loop's own work (SelfStats); stall is the diagnosis of
	// a run in which no component can ever act again (skipAhead); imageLen is
	// the length of the last image loaded or saved, SaveState's size hint.
	self     SelfStats
	stall    string
	imageLen int
	// The progress watchdog (watchProgress): the next check, each core's
	// lifetime retire count at the last one, and the verdict that ends the run.
	watchAt uint64
	watched []uint64
	hung    error

	// arena holds every slab the System is built from; Close hands it to the
	// next NewSystem of the same core count.
	arena *mem.Arena
}

// pfQueueDepth bounds each core's prefetch queue: a candidate that finds it
// full is dropped.
const pfQueueDepth = 16

// pfEntry is one queued prefetch and its injection cache.
type pfEntry struct {
	req  mem.Request
	toL2 bool
}

type epochSnapshot struct {
	pfFills, pfUseful, pfLate, pfPolluting, misses, retired uint64
}

// NewSystem builds and wires a system. It is built from the memory of the
// last closed System of the same core count when there is one (Close), and
// is the same system either way.
func NewSystem(cfg Config) (*System, error) {
	return newSystem(cfg, cfg.dramConfig())
}

// newSystem is NewSystem with the memory-controller configuration given
// explicitly: the stall-path tests shrink the controller queues, which no
// Config field reaches.
func newSystem(cfg Config, dcfg dram.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return buildSystem(takeArena(cfg.Cores()), cfg, dcfg)
}

// buildSystem builds a validated configuration's system from the slabs of
// arena a. A build that fails hands a back to the free list.
func buildSystem(a *mem.Arena, cfg Config, dcfg dram.Config) (*System, error) {
	s := &System{cfg: cfg, arena: a}
	if err := s.build(dcfg); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// build assembles and wires the components of s.cfg, every slab taken from
// s.arena.
func (s *System) build(dcfg dram.Config) error {
	cfg, a := s.cfg, s.arena
	n := cfg.Cores()
	mesh, err := noc.NewIn(a, meshConfig(n, cfg.NoCCriticalPriority))
	if err != nil {
		return err
	}
	s.mesh = mesh
	if s.dram, err = dram.NewIn(a, dcfg); err != nil {
		return err
	}
	s.dramPending = mem.NewDueQueue(a, dcfg.Channels)
	s.hermesHold = mem.NewDueQueue(a, 1)
	s.attachL2 = prefetchAttachL2(cfg.Prefetcher)
	s.warmed = cfg.WarmupInstr == 0

	// DRAM responses are held until their DoneCycle, then routed to the
	// owning LLC slice (or to L1 directly for Hermes bypass loads).
	s.dram.OnResponse(func(r *mem.Response) {
		s.dramPending.Push(s.dram.ChannelOf(r.Req.Addr), r)
	})

	// All hot mesh traffic is payload packets dispatched here by kind; the
	// per-response closures this replaces allocated on every LLC round trip.
	s.mesh.OnDeliver(s.onMeshDeliver)

	// Each kind of component is built once for every core: one array per
	// cache level, one for the cores and so on, each component's columns
	// carved from its kind's slabs (DESIGN.md §8). Every level shares one
	// response handler, told which cache calls it.
	llcs, err := cache.NewArray(a, cacheConfig(cfg.LLC, mem.LevelLLC), n, func(int) cache.Lower { return s.dram })
	if err != nil {
		return err
	}
	l2Lowers, l1Lowers := mem.Make[l2Lower](a, n), mem.Make[l1Lower](a, n)
	for i := 0; i < n; i++ {
		l2Lowers[i], l1Lowers[i] = l2Lower{s: s, core: i}, l1Lower{s: s, core: i}
	}
	l2s, err := cache.NewArray(a, cacheConfig(cfg.L2, mem.LevelL2), n, func(i int) cache.Lower { return &l2Lowers[i] })
	if err != nil {
		return err
	}
	l1s, err := cache.NewArray(a, cacheConfig(cfg.L1D, mem.LevelL1), n, func(i int) cache.Lower { return &l1Lowers[i] })
	if err != nil {
		return err
	}
	s.llc, s.l2, s.l1d = pointers(a, llcs), pointers(a, l2s), pointers(a, l1s)
	onLLC, onL2, onL1 := s.onLLCResponse, s.onL2Response, s.onL1Response
	for i := 0; i < n; i++ {
		s.llc[i].OnLevelResponse(onLLC)
		s.l2[i].OnLevelResponse(onL2)
		s.l1d[i].OnLevelResponse(onL1)
	}

	// Front-end models: each core's port owns its TLB hierarchy and L1I.
	div := max(1, cfg.ScaleDivisor)
	tlbs, err := tlb.NewArray(a, tlb.DefaultConfig(div), n)
	if err != nil {
		return err
	}
	l1is := newL1Is(a, n, div, cfg.L2.Latency+cfg.LLC.Latency)
	ports := mem.Make[corePort](a, n)
	s.ports = mem.Make[*corePort](a, n)
	memPorts := mem.Make[cpu.MemoryPort](a, n)
	delayed := mem.Make[delayedReq](a, n*portQueueDepth)
	for i := range ports {
		ports[i] = corePort{s: s, core: i, tlb: &tlbs[i], l1i: &l1is[i],
			pending: mem.Carve(&delayed, portQueueDepth)[:0]}
		s.ports[i], memPorts[i] = &ports[i], &ports[i]
	}
	if cfg.DynamicCLIP {
		s.dynClip = &dynamicClip{active: true}
	}

	// Cores with their workloads; each core's trace generator is its own.
	scale := cfg.TraceScale()
	gens := mem.Make[trace.Generator](a, n)
	for i := range gens {
		tcfg, err := trace.Lookup(cfg.Workload[i], scale)
		if err != nil {
			return err
		}
		tcfg.Seed = mem.HashString(cfg.Workload[i]) ^ cfg.Seed ^ uint64(i)<<32
		// SPEC-rate semantics: each core runs in a private address space.
		tcfg.AddrOffset = mem.Addr(uint64(i+1) << 42)
		if gens[i], err = trace.New(tcfg); err != nil {
			return err
		}
	}
	budget := cfg.WarmupInstr
	if budget == 0 {
		budget = cfg.InstrPerCore
	}
	cores, err := cpu.NewCores(a, cfg.CPU, gens, memPorts, budget)
	if err != nil {
		return err
	}
	s.cores = pointers(a, cores)

	// Size every per-tile buffer up front so the steady-state loop does not
	// allocate: the direct-DRAM queue is bounded by directDRAMDepth, the
	// prefetch queue by pfQueueDepth, the retry ring by its drain rate and
	// the bypass list by the L1D's MSHRs. Each kind's rings share one slab.
	s.llcRetry = mem.Make[mem.Ring[mem.Request]](a, n)
	s.pfQ = mem.Make[mem.Ring[pfEntry]](a, n)
	s.stage = mem.Make[tileStage](a, n)
	s.bypass = mem.Make[bypassLines](a, n)
	s.epochPrev = mem.Make[epochSnapshot](a, n)
	dramQs := mem.Make[mem.Request](a, n*directDRAMDepth)
	retries := mem.Make[mem.Request](a, n*llcRetryDepth)
	pfQs := mem.Make[pfEntry](a, n*pfQueueDepth)
	lines := mem.Make[bypassLine](a, n*cfg.L1D.MSHRs)
	for i := 0; i < n; i++ {
		s.stage[i].dramQ.Adopt(mem.Carve(&dramQs, directDRAMDepth))
		s.llcRetry[i].Adopt(mem.Carve(&retries, llcRetryDepth))
		s.pfQ[i].Adopt(mem.Carve(&pfQs, pfQueueDepth))
		s.bypass[i] = mem.Carve(&lines, cfg.L1D.MSHRs)[:0]
	}
	s.skip = !cfg.DisableSkip
	s.carveColumns()

	if err := s.attachMechanisms(); err != nil {
		return err
	}

	if s.skip {
		s.dram.OnDequeue(s.wakeParked)
	} else {
		s.dram.ScanEveryCycle()
	}
	fetch, onFinished := s.fetch, func() { s.finished++ }
	for _, c := range s.cores {
		c.SetFetchChecker(fetch)
		c.OnFinished(onFinished)
	}
	if cfg.Throttler != "" {
		s.nextThrottle = throttleEpoch
	}
	return nil
}

// llcRetryDepth sizes each slice's retry ring: the deliveries one slice can
// be refused between two of its ticks. A deeper backlog grows the ring.
const llcRetryDepth = 16

// cacheConfig is the cache configuration of one level of the hierarchy.
func cacheConfig(c CacheGeom, level mem.Level) cache.Config {
	return cache.Config{Level: level, Sets: c.Sets, Ways: c.Ways, Latency: c.Latency,
		MSHRs: c.MSHRs, Policy: c.Policy, Ports: c.Ports, InQ: c.InQ}
}

// pointers returns a pointer to each element of xs, in a slab from a.
func pointers[T any](a *mem.Arena, xs []T) []*T {
	ps := mem.Make[*T](a, len(xs))
	for i := range xs {
		ps[i] = &xs[i]
	}
	return ps
}

// onLLCResponse sends slice i's response over the mesh to the requesting
// core's L2 as a payload packet (kind pktLLCResp). A request restored from a
// damaged image can name a core that does not exist: its response goes
// nowhere, as cpu.Core.CompleteLoad drops one for a ROB slot that holds no
// load.
func (s *System) onLLCResponse(i int, r *mem.Response) {
	if uint(r.Req.Core) < uint(len(s.llc)) {
		s.mesh.SendPayload(i, int(r.Req.Core), noc.FlitsPerData, s.packetHigh(&r.Req), pktLLCResp, r)
	}
}

// onL2Response fills core i's L1D.
func (s *System) onL2Response(i int, r *mem.Response) { s.l1d[i].Fill(r) }

// onL1Response completes core i's load.
func (s *System) onL1Response(i int, r *mem.Response) {
	if r.Req.ROBIndex >= 0 && int(r.Req.Core) == i {
		s.cores[i].CompleteLoad(r)
	}
}

// fetch is every core's instruction-fetch model: core i's L1I.
func (s *System) fetch(i int, ip uint64) uint64 { return s.ports[i].l1i.fetch(ip) }

// Close ends the System: it zeroes the memory the System is built from, as
// make would have, and hands it to a later NewSystem of the same core count,
// unless the garbage collector reclaims it first. Nothing may read the
// System after Close: Close drops every reference it holds, so a later call
// on it fails at once instead of reading reused memory. A Result, a SelfStats or an image it returned
// holds none of that memory. A second Close does nothing. Run, RunFromImage
// and WarmupImage close their own System.
func (s *System) Close() {
	if s.arena == nil {
		return
	}
	a, n := s.arena, s.cfg.Cores()
	*s = System{}
	releaseArena(n, a)
}

// freeArenas is the free list Close fills and NewSystem takes from: the
// arenas of closed Systems with their core counts, the last filed last.
// Garbage collections age it, as they do a sync.Pool: an arena left on it
// through two collections is dropped, so the list keeps no memory alive in
// a process that has stopped building Systems. It is one list, not a
// sync.Pool, because a pool hides what one processor put in it from a
// NewSystem running on another, which then builds cold.
var freeArenas struct {
	sync.Mutex
	list  []coreArena
	aging bool // the end of the next collection ages the list
}

type coreArena struct {
	cores int
	arena *mem.Arena
	aged  bool // a collection has ended since the arena was filed
}

// takeArena returns the arena of the last closed System of the given core
// count, or a new one.
func takeArena(cores int) *mem.Arena {
	freeArenas.Lock()
	defer freeArenas.Unlock()
	l := freeArenas.list
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].cores == cores {
			a := l[i].arena
			freeArenas.list = slices.Delete(l, i, i+1)
			return a
		}
	}
	return new(mem.Arena)
}

// releaseArena puts the arena of a closed System of the given core count on
// the free list.
func releaseArena(cores int, a *mem.Arena) {
	a.Rewind()
	freeArenas.Lock()
	defer freeArenas.Unlock()
	freeArenas.list = append(freeArenas.list, coreArena{cores: cores, arena: a})
	if !freeArenas.aging {
		freeArenas.aging = true
		runtime.SetFinalizer(new(collection), ageFreeArenas)
	}
}

// collection is an object nothing refers to, whose finalizer thus runs
// after the next garbage collection. Its pointer keeps the allocator from
// packing it with other small objects, which would delay the finalizer.
type collection struct{ _ *byte }

// ageFreeArenas ages the free list at the end of a garbage collection: it
// drops the arenas already aged and marks the others aged. While any are
// left it sets itself as c's finalizer again, so the collection after ages
// the list too.
func ageFreeArenas(c *collection) {
	freeArenas.Lock()
	defer freeArenas.Unlock()
	freeArenas.list = slices.DeleteFunc(freeArenas.list, func(e coreArena) bool { return e.aged })
	for i := range freeArenas.list {
		freeArenas.list[i].aged = true
	}
	if freeArenas.aging = len(freeArenas.list) > 0; freeArenas.aging {
		runtime.SetFinalizer(c, ageFreeArenas)
	}
}

// throttleEpoch is the throttler epoch length in cycles.
const throttleEpoch = 4096

func meshConfig(nodes int, critPrio bool) noc.Config {
	c := noc.DefaultConfig(nodes)
	c.CriticalPriority = critPrio
	return c
}

// Payload-packet kinds carried over the mesh (noc.Mesh.SendPayload).
const (
	pktLLCReq  uint8 = iota // L2 miss travelling to its LLC slice (Response.Req)
	pktLLCResp              // LLC response returning to the requesting core's L2
)

// onMeshDeliver routes payload packets at their destination node. The
// response points into the mesh's packet slab and is consumed synchronously.
func (s *System) onMeshDeliver(kind uint8, dst int, r *mem.Response, cycle uint64) {
	switch kind {
	case pktLLCResp:
		r.DoneCycle = cycle
		s.wakeTile(dst, cycle+1, WakeMesh) // the tile walk of this cycle is over
		s.l2[dst].Fill(r)
	default: // pktLLCReq
		s.wakeSlice(dst, cycle, WakeMesh) // the slices tick after the mesh
		if !s.llc[dst].Issue(&r.Req) {
			s.llcRetry[dst].Push(r.Req)
		}
	}
}

// packetHigh classifies a request into the NoC priority classes: demands and
// CLIP-critical prefetches ride high.
func (s *System) packetHigh(req *mem.Request) bool {
	if req.Type == mem.Prefetch {
		return req.Critical
	}
	return true
}

// sliceOf maps a line to its LLC slice (address-interleaved).
func (s *System) sliceOf(addr mem.Addr) int {
	return int(mem.Mix64(addr.LineID()>>2) % uint64(len(s.llc)))
}

// l2Lower carries L2 misses over the mesh to the owning LLC slice.
type l2Lower struct {
	s    *System
	core int
}

// Issue implements cache.Lower: the mesh never refuses an injection.
func (l *l2Lower) Issue(req *mem.Request) bool {
	s := l.s
	resp := mem.Response{Req: *req}
	s.mesh.SendPayload(l.core, s.sliceOf(req.Addr), noc.FlitsPerAddr, s.packetHigh(req), pktLLCReq, &resp)
	return true
}

// l1Lower sits between L1D and L2; it implements the Hermes bypass.
type l1Lower struct {
	s    *System
	core int
}

// Issue implements cache.Lower. Under Hermes a load miss is routed once, on
// its first attempt, and keeps that route until it is accepted (hermesRoute).
// The bypass puts its direct-DRAM read in the tile's queue, which the tile
// walk offers to the controller; a full queue refuses it the way a full DRAM
// read queue does.
func (l *l1Lower) Issue(req *mem.Request) bool {
	s := l.s
	h := s.mech[l.core].hermes
	if h == nil || req.Type != mem.Load {
		return s.l2[l.core].Issue(req)
	}
	st := &s.stage[l.core]
	if !st.route.live || st.route.req != *req {
		st.route = hermesRoute{live: true, bypass: s.routeOffChip(l.core, h, req), req: *req}
	}
	if st.route.bypass {
		if st.dramQ.Len() >= directDRAMDepth {
			return false
		}
		s.pushDirect(l.core, *req)
	} else if !s.l2[l.core].Issue(req) {
		return false
	}
	st.route = hermesRoute{}
	return true
}

// routeOffChip is Hermes' one decision for a load miss of core i: whether it
// takes the bypass, skipping the on-chip walk (the paper's latency saving).
// A predicted off-chip load whose line is on-chip after all takes the L2
// route; the real Hermes would have burned a DRAM read on it, which is
// modelled by a low-priority waste read, queued here once.
func (s *System) routeOffChip(i int, h *hermes.Predictor, req *mem.Request) bool {
	if !h.PredictOffChip(req.IP, req.Addr) {
		return false
	}
	if !s.l2[i].Probe(req.Addr) && !s.llc[s.sliceOf(req.Addr)].Probe(req.Addr) {
		return true
	}
	waste := *req
	waste.Type = mem.Prefetch
	waste.ROBIndex = -1
	if s.stage[i].dramQ.Len() < directDRAMDepth {
		s.pushDirect(i, waste)
	}
	return false
}

// bypassed reports whether req is the refused miss that holds the bypass
// route.
func (l *l1Lower) bypassed(req *mem.Request) bool {
	r := &l.s.stage[l.core].route
	return r.live && r.bypass && r.req == *req
}

// StallEpoch implements mem.Staller. A retry repeats its route, so it is
// refused purely until the route's queue frees a slot: the tile's
// direct-DRAM queue pops for the bypass, the L2's input-queue pops otherwise.
func (l *l1Lower) StallEpoch(req *mem.Request) *uint64 {
	if l.bypassed(req) {
		if st := &l.s.stage[l.core]; st.dramQ.Len() >= directDRAMDepth {
			return &st.pops
		}
		return nil
	}
	return l.s.l2[l.core].StallEpoch(req)
}

// Refused implements mem.Staller: a refusal of the bypass counts nothing.
func (l *l1Lower) Refused(req *mem.Request, n uint64) {
	if !l.bypassed(req) {
		l.s.l2[l.core].Refused(req, n)
		return
	}
	if invariant.Enabled {
		invariant.Check(l.s.stage[l.core].dramQ.Len() >= directDRAMDepth,
			"sim: %d retries of core %d's bypass load %x charged as refused, but its direct-DRAM queue has room",
			n, l.core, uint64(req.Addr))
	}
}

// Tick advances the whole system one cycle: the tiles in ascending core
// index (tile.go), then the shared components — mesh, LLC slices, DRAM,
// response deliveries, throttlers. The tile and slice walks visit the awake
// sets (awake.go); under DisableSkip nothing ever sleeps, so they visit
// everything and tick every component. Results are byte-identical between
// the two.
func (s *System) Tick() {
	cy := s.cycle
	s.coresTicked = 0
	s.self.Ticks++
	s.wakeDue(cy)
	if invariant.Enabled {
		s.checkSleepingTiles(cy)
	}
	s.tickTiles(cy)
	if s.dynClip != nil {
		// The utilization signal is only sampled on epoch boundaries; skip
		// the O(channels) read on every other cycle.
		var util float64
		if cy%dynClipEpoch == 0 {
			util = s.dram.GlobalUtilization()
		}
		s.dynClip.update(cy, util)
	}
	s.mesh.Tick(cy)
	s.tickSlices(cy)
	s.dram.Tick(cy)
	s.deliverDRAM(cy)
	s.deliverHermesHeld(cy)
	if s.cfg.Throttler != "" {
		s.tickThrottlers(cy)
	}
	s.cycle++
}

// tickSlices advances the awake LLC slices and, in the same ascending walk,
// the sleepers a controller dequeue marked popped that find room at their
// turn. Under skipping, a visited slice that is left with nothing due next
// cycle goes to sleep; under DisableSkip every slice stays awake.
func (s *System) tickSlices(cy uint64) {
	if invariant.Enabled {
		s.checkSleepingSlices(cy)
	}
	a := &s.awake
	for wi, awake := range a.slices.awake {
		s.self.SliceVisits += uint64(bits.OnesCount64(awake))
		w := awake | a.popped[wi]
		a.popped[wi] = 0
		for ; w != 0; w &= w - 1 {
			b := uint(bits.TrailingZeros64(w))
			i := wi<<6 + int(b)
			if awake>>b&1 == 0 && !s.recheckPopped(i, cy) {
				continue
			}
			l := s.llc[i]
			// Against a full queue every retry is refused and the rotation is
			// the identity (the ring never holds a droppable prefetch, which
			// Issue accepts): under skipping, leave the ring alone.
			if !s.skip || !l.Full() {
				s.retryLLC(i)
			}
			s.tickCache(l, cy)
			if !s.skip {
				continue
			}
			woke := a.sliceWoke[i]
			a.sliceWoke[i] = 0
			if next := s.sliceHorizon(i, cy+1); next > cy+1 {
				a.slices.sleep(i, next)
				s.parkSlice(i)
				if woke != 0 {
					s.self.SliceResleeps[woke-1]++
				}
			}
		}
	}
}

// retryLLC re-issues slice i's refused deliveries in arrival order; refused
// requests rotate to the back, preserving relative order.
func (s *System) retryLLC(i int) {
	for n := s.llcRetry[i].Len(); n > 0; n-- {
		req := s.llcRetry[i].PopFront()
		if !s.llc[i].Issue(&req) {
			s.llcRetry[i].Push(req)
		}
	}
}

// Finished reports whether every core retired its budget. The count is
// maintained by per-core OnFinished events (and re-armed at the warmup
// barrier), so this is O(1) instead of a per-cycle core scan.
func (s *System) Finished() bool { return s.finished == len(s.cores) }

// horizon returns the earliest cycle >= now at which anything that carries a
// request has work: now while any tile or slice is awake, a slice is popped
// or a direct-DRAM head is ready, otherwise the minimum of the sleepers'
// deadlines, the mesh horizon, pending DRAM responses and held Hermes fills —
// read off the columns, not re-folded per component. A parked direct-DRAM
// head has no event of its own: it moves after its queue's dequeue, which the
// DRAM horizon reports. mem.NoEvent means nothing is on its way anywhere
// above the memory controller.
func (s *System) horizon(now uint64) uint64 {
	a := &s.awake
	if anyBit(a.tiles.awake) || anyBit(a.slices.awake) || anyBit(a.popped) || anyBit(a.dramReady) {
		return now
	}
	return max(now, min(a.tiles.min, a.slices.min, s.mesh.NextEvent(now), s.dramPending.Next(), s.hermesHold.Next()))
}

// skipAhead jumps the global clock to the earliest future cycle at which
// any component has work — horizon folded with the DRAM controller's own
// horizon and the timekeeping deadlines (throttler epoch, dynamic-CLIP
// sample) — bulk-applying what the skipped cycles would have counted on the
// shared components. Sleeping tiles, slices and parked direct-DRAM heads are
// not touched: the jump only widens the window they are charged for when
// they wake or their queue dequeues. A no-op when something has work next
// cycle. The caller has seen unfinished cores.
func (s *System) skipAhead(maxCycles uint64) {
	now := s.cycle // the next cycle to simulate
	h := s.horizon(now)
	if h <= now {
		return
	}
	if h == mem.NoEvent && s.stall == "" && s.dram.Idle() {
		// Nothing is awake, due or in flight, so no core can ever finish; what
		// is folded in below only keeps time. Say so once (awake.go).
		s.stall = s.diagnoseStall(fmt.Sprintf("no component has work at cycle %d but %d of %d cores have not finished;",
			s.cycle, len(s.cores)-s.finished, len(s.cores)))
		invariant.Check(false, "%s", s.stall)
	}
	h = min(h, s.dram.NextEvent(now), maxCycles)
	if s.cfg.Throttler != "" {
		h = min(h, s.nextThrottle)
	}
	if s.dynClip != nil {
		h = min(h, s.dynClip.nextSample(now))
	}
	if h <= now {
		return
	}
	n := h - now
	if invariant.Enabled {
		// The columns said nobody has work before h; every sleeper re-derives
		// it (the shared components do in their own skip calls below).
		for i := range s.cores {
			if s.tileHorizon(i, now) < h || s.sliceHorizon(i, now) < h {
				invariant.Check(false, "sim: jump [%d,%d) passes work of tile or slice %d (%s; %s)",
					now, h, i, s.describeTile(i), s.describeSlice(i))
			}
		}
	}
	s.mesh.SkipCycles(now, n)
	s.dram.SkipCycles(now, n)
	if s.dynClip != nil {
		s.dynClip.advance(n)
	}
	s.cycle = h
	s.self.GlobalSkips++
	s.self.CyclesSkipped += n
}

// resetStats zeroes all measurement counters at the warmup barrier.
func (s *System) resetStats() {
	for i := range s.cores {
		s.cores[i].ResetStats()
		*s.l1d[i].Stats() = cache.Stats{}
		*s.l2[i].Stats() = cache.Stats{}
		*s.llc[i].Stats() = cache.Stats{}
		m := &s.mech[i]
		if m.clip != nil {
			*m.clip.Stats() = core.Stats{}
		}
		for j := range m.scored {
			m.scored[j].score = criticality.Score{}
		}
	}
	*s.dram.Stats() = dram.Stats{}
	*s.mesh.Stats() = noc.Stats{}
	if s.dynClip != nil {
		s.dynClip.resetCounters()
	}
	for i := range s.pfGenerated {
		s.pfGenerated[i] = 0
		s.pfIssued[i] = 0
	}
}

// MaxCycles resolves the configured cycle bound (the safety net of the run
// loop): Config.MaxCycles when set, otherwise derived from the instruction
// budget.
func (s *System) MaxCycles() uint64 {
	if s.cfg.MaxCycles != 0 {
		return s.cfg.MaxCycles
	}
	maxCycles := (s.cfg.WarmupInstr + s.cfg.InstrPerCore) * 300
	if maxCycles < 2_000_000 {
		maxCycles = 2_000_000
	}
	return maxCycles
}

// warmupBarrier transitions the system from warmup into measurement: zero
// counters, extend budgets, re-arm the finished counter (ExtendBudget resets
// each core's trigger).
func (s *System) warmupBarrier() {
	s.warmed = true
	s.settleAll() // cycles slept through so far belong to the warmup
	s.resetStats()
	s.measureStart = s.cycle
	s.finished = 0
	for _, c := range s.cores {
		c.ExtendBudget(s.cfg.InstrPerCore)
	}
}

// advance is the one loop body every run shares: a Tick, then — when that
// left cores unfinished and nothing awake — a jump to the next event. It
// reports whether every core has retired its budget.
func (s *System) advance(maxCycles uint64) bool {
	s.Tick()
	if s.Finished() {
		return true
	}
	if s.skip {
		s.skipAhead(maxCycles)
	}
	if s.cycle >= s.watchAt {
		s.watchProgress()
	}
	return false
}

// stallLimit is how long an unfinished core may go without retiring an
// instruction before the run is declared hung: orders of magnitude beyond the
// worst queueing a saturated channel imposes on a load, and well inside the
// default cycle bound.
const stallLimit = 1 << 19

// watchProgress runs every stallLimit cycles. A run in which nothing is awake
// or in flight diagnoses itself at once (skipAhead), but a lost wake can also
// leave one core asleep for good while the cores that finished keep replaying
// their traces; that run would otherwise spin to its cycle bound in silence.
func (s *System) watchProgress() {
	for i, c := range s.cores {
		retired := c.RetiredTotal()
		if retired == s.watched[i] && !c.Finished() && s.hung == nil {
			s.hung = errors.New(s.diagnoseStall(fmt.Sprintf(
				"core %d retired nothing in the %d cycles before cycle %d;", i, s.cycle+stallLimit-s.watchAt, s.cycle)))
		}
		s.watched[i] = retired
	}
	s.watchAt = s.cycle + stallLimit
}

// Step advances the run loop by one iteration — advance plus the warmup
// barrier — and reports whether the run continues: false once every core has
// finished, at the cycle bound, and when the progress watchdog has declared
// the run hung. Checkpoint tests pause a run at an arbitrary iteration with
// the exact semantics of Run.
func (s *System) Step(maxCycles uint64) bool {
	if s.cycle >= maxCycles || s.hung != nil {
		return false
	}
	if !s.advance(maxCycles) {
		return true
	}
	if s.warmed {
		return false
	}
	s.warmupBarrier()
	return true
}

// runLoop steps the run to its end and returns the watchdog's verdict, if
// that is what ended it.
func (s *System) runLoop(maxCycles uint64) error {
	for s.Step(maxCycles) {
	}
	return s.hung
}

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) {
	res, _, err := RunSelf(cfg, nil, false)
	return res, err
}

// RunSelf is Run — or, with resume set, RunFromImage — that also returns the
// simulation loop's own counters. It closes its System once they are built.
func RunSelf(cfg Config, image []byte, resume bool) (*Result, SelfStats, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, SelfStats{}, err
	}
	defer s.Close()
	if resume {
		if err := s.LoadState(image); err != nil {
			return nil, SelfStats{}, err
		}
		if !s.warmed {
			if !s.Finished() {
				return nil, SelfStats{}, fmt.Errorf("sim: image paused mid-warmup; resume it with LoadState+Step")
			}
			s.warmupBarrier()
		}
	}
	if err := s.runLoop(s.MaxCycles()); err != nil {
		return nil, s.SelfStats(), err
	}
	return s.collect(), s.SelfStats(), nil
}

// WarmupConfig canonicalizes a configuration down to its warmup-relevant
// core: every mechanism is stripped and the execution-mode knobs are zeroed,
// so all variants of one figure point — which share workloads, seeds and
// geometry but differ in mechanisms — map to the same warmup configuration
// and can fork from one warmed image.
func WarmupConfig(cfg Config) Config {
	c := cfg
	c.Prefetcher = "none"
	c.CLIP = nil
	c.CritPredictor = ""
	c.ScorePredictors = false
	c.Throttler = ""
	c.Hermes = false
	c.DSPatch = false
	c.DynamicCLIP = false
	c.NoCCriticalPriority = true
	c.DRAMCriticalPriority = true
	c.MaxCycles = 0
	c.DisableSkip = false
	return c
}

// WarmupImage runs cfg's warmup phase to completion and serializes the
// system at the warmup barrier — the instant the last core retires its
// warmup budget, before counters are zeroed. Restoring the image and
// crossing the barrier is byte-identical to having run the warmup in
// process (the warm-fork equivalence test pins this). It closes its System
// once the image is built.
func WarmupImage(cfg Config) ([]byte, error) {
	if cfg.WarmupInstr == 0 {
		return nil, fmt.Errorf("sim: WarmupImage requires WarmupInstr > 0")
	}
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	maxCycles := s.MaxCycles()
	for s.cycle < maxCycles && s.hung == nil && !s.advance(maxCycles) {
	}
	if s.hung != nil {
		return nil, s.hung
	}
	if !s.Finished() {
		return nil, fmt.Errorf("sim: warmup did not complete within %d cycles%s", maxCycles, s.stallNote())
	}
	return s.SaveState()
}

// RunFromImage restores a warmup image (or any SaveState stream) into a
// fresh system built from cfg and runs it to completion. A mid-warmup image
// crosses the warmup barrier first, exactly as Run would have.
func RunFromImage(cfg Config, image []byte) (*Result, error) {
	res, _, err := RunSelf(cfg, image, true)
	return res, err
}

// tickThrottlers runs the epoch controllers. The next-epoch deadline
// replaces the per-cycle modulo check (and is folded into the skip horizon,
// so a global jump can never overshoot an epoch boundary).
func (s *System) tickThrottlers(cy uint64) {
	if cy < s.nextThrottle {
		return
	}
	if invariant.Enabled {
		invariant.Check(cy == s.nextThrottle,
			"sim: throttle epoch %d missed, ticked at %d", s.nextThrottle, cy)
	}
	s.nextThrottle += throttleEpoch
	for i := range s.mech {
		th := s.mech[i].throttler
		if th == nil {
			continue
		}
		attach := s.l1d[i]
		if s.attachL2 {
			attach = s.l2[i]
		}
		st := attach.Stats()
		prev := &s.epochPrev[i]
		dFills := st.PFFills - prev.pfFills
		dUseful := st.PFUseful - prev.pfUseful
		dLate := st.PFLate - prev.pfLate
		dPoll := st.PFPolluting - prev.pfPolluting
		dMiss := st.DemandMisses - prev.misses
		retired := s.cores[i].Stats().Retired
		dRet := retired - prev.retired
		prev.pfFills, prev.pfUseful, prev.pfLate = st.PFFills, st.PFUseful, st.PFLate
		prev.pfPolluting, prev.misses, prev.retired = st.PFPolluting, st.DemandMisses, retired

		m := throttle.Metrics{
			BandwidthUtil: s.dram.GlobalUtilization(),
			CoreIPC:       float64(dRet) / throttleEpoch,
		}
		if dFills+dLate > 0 {
			m.Accuracy = float64(dUseful+dLate) / float64(dFills+dLate)
		}
		if dUseful+dLate > 0 {
			m.Lateness = float64(dLate) / float64(dUseful+dLate)
		}
		if dMiss > 0 {
			m.Pollution = float64(dPoll) / float64(dMiss)
		}
		// Interference proxy: average DRAM queueing delay relative to a
		// lightly-loaded controller.
		qd := s.dram.Stats().QueueDelay.Mean()
		m.OtherCoreSlow = qd / (qd + 200)
		th.Adjust(m)
	}
}
