// Package cache implements the set-associative caches of the baseline
// hierarchy (Table 3): tag arrays, MSHRs with request merging, write-back /
// write-allocate stores, replacement policies, and the demand/prefetch
// accounting (coverage, accuracy, lateness) that the paper's figures report.
//
// A Cache is a cycle-ticked component. Requests enter through Issue (which
// applies backpressure by returning false), misses flow to the Lower level,
// and fills return through Fill. Responses to the level above are delivered
// via the OnResponse callback.
//
// Storage is structure-of-arrays: tags pack validity into bit 0 so the way
// scan is one word compare per way, dirty/prefetch state lives in per-set
// way bitmaps, and the MSHR file is parallel arrays scheduled by a
// table.Bits occupancy bitmap (first-free allocation, ascending-order merge
// scan — the exact semantics of the per-entry loops this replaces). Caches
// are built a level at a time (NewArray): every column of every cache of
// the level is carved from one slab per column type.
package cache

import (
	"fmt"
	"math/bits"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/stats"
	"clip/internal/table"
)

// Lower is the next level down (another cache, a NoC adapter, or DRAM). The
// request is fully consumed during the call (copied if queued); callees must
// not retain the pointer.
type Lower interface {
	Issue(req *mem.Request) bool
}

// Config sizes one cache instance.
type Config struct {
	Name    string // optional label; a cache without one is named by level and index
	Level   mem.Level
	Sets    int
	Ways    int
	Latency uint64 // hit/lookup latency in cycles
	MSHRs   int
	Policy  string // a name policyKinds lists
	Ports   int    // requests processed per cycle
	InQ     int    // input queue depth
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	name := c.Name
	if name == "" {
		name = c.Level.String()
	}
	if c.Sets <= 0 || c.Ways <= 0 || (c.Sets&(c.Sets-1)) != 0 {
		return fmt.Errorf("cache %v: sets must be a positive power of two, ways positive", name)
	}
	if c.Ways > 64 {
		return fmt.Errorf("cache %v: ways %d exceeds the 64-way bitmap limit", name, c.Ways)
	}
	if c.MSHRs <= 0 || c.Ports <= 0 {
		return fmt.Errorf("cache %v: MSHRs and Ports must be positive", name)
	}
	if _, ok := policyKinds[c.Policy]; !ok {
		return fmt.Errorf("cache %v: unknown replacement policy %q", name, c.Policy)
	}
	return nil
}

// Stats holds per-cache counters.
type Stats struct {
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64
	StoreAccesses  uint64
	PFIssued       uint64 // prefetch requests accepted at this level
	PFDropped      uint64 // prefetches dropped for structural reasons
	PFFills        uint64 // prefetched lines installed
	PFUseful       uint64 // prefetched lines touched by a demand
	PFLate         uint64 // demands merged into in-flight prefetch MSHRs
	PFPolluting    uint64 // prefetched lines evicted untouched
	Writebacks     uint64
	Evictions      uint64
	MSHRFullEvents uint64
	OrphanFills    uint64 // fills that matched no MSHR

	// DemandMissLatency measures acceptance-to-fill latency of demand misses
	// at this level (Figure 3 and Figure 11 feed from this).
	DemandMissLatency stats.LatencyAcc
}

// HitRate returns demand hit rate.
func (s *Stats) HitRate() float64 { return stats.Ratio(s.DemandHits, s.DemandAccesses) }

// Coverage returns prefetch coverage: the fraction of would-be demand misses
// eliminated by prefetching.
func (s *Stats) Coverage() float64 {
	return stats.Ratio(s.PFUseful, s.PFUseful+s.DemandMisses)
}

// Accuracy returns prefetch accuracy: useful fills / fills. Late-but-useful
// prefetches count as useful (the paper counts them as accurate).
func (s *Stats) Accuracy() float64 {
	return stats.Ratio(s.PFUseful+s.PFLate, s.PFFills+s.PFLate)
}

// waiter is a request parked on an MSHR, with its arrival cycle so demand
// miss latency is measured from *its* arrival (a late-prefetch merge waits
// less than the full fill time). next links it to the pool slot of the next
// waiter on the same chain (-1 ends it).
type waiter struct {
	req     mem.Request
	arrived uint64
	next    int32
}

// l1WaitersPerMSHR sizes the waiter pool of an L1 cache, where the core's
// loads and stores merge onto in-flight misses in bursts: the deepest storm
// over the bench workloads parks 213 waiters on a 24-MSHR L1D (8.9 an MSHR).
// Below L1 an MSHR is waited on by at most one upper-level miss, so one slot
// an MSHR is enough there.
const l1WaitersPerMSHR = 10

type queued struct {
	req     mem.Request
	ready   uint64
	counted bool // per-level stats recorded (lookup may retry under stalls)
}

// AccessEvent notifies prefetcher training: a demand access at this level.
type AccessEvent struct {
	Req   mem.Request
	Hit   bool
	Cycle uint64
	// HitPrefetchedLine: the demand hit a line originally brought by a
	// prefetch (first touch) — per-IP prefetch usefulness feeds from this.
	HitPrefetchedLine bool
	// TriggerIP is the trigger IP of the prefetched line, if any. It is
	// always zero at the LLC, which keeps no trigger column: no prefetcher
	// attaches there.
	TriggerIP uint64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg    Config
	id     int // index in the cache's array (NewArray)
	policy Policy
	lower  Lower

	// Line state, structure-of-arrays. tags[set*Ways+way] packs the tag as
	// tag<<1|1 so zero means invalid and the way scan is a single compare.
	// dirtyBits/pfBits/validBits[set] hold one bit per way (validBits makes
	// the install free-way pick a TrailingZeros64 scan and gives Probe an
	// empty-set early out). trigger[set*Ways+way] is the prefetch trigger
	// IP; only levels below the LLC, where a prefetcher can attach, have
	// the column (nil at the LLC). All are carved from slab, which is this
	// cache's region of its array's word slab.
	slab      []uint64
	tags      []uint64
	trigger   []uint64
	dirtyBits []uint64
	pfBits    []uint64
	validBits []uint64

	inQ mem.Ring[queued]
	wbQ mem.Ring[mem.Request]

	// MSHR file, structure-of-arrays scheduled by mshrValid: allocation is
	// FirstClear (lowest free slot), the merge scan walks set bits ascending
	// — both exactly the orders of the former per-entry loops.
	mshrValid table.Bits
	mshrPF    table.Bits // allocator was a prefetch
	mshrLine  []mem.Addr
	mshrFirst []uint64      // allocation cycle
	mshrPfReq []mem.Request // original prefetch request (fill bookkeeping)

	// MSHR waiters live in one pool per cache. MSHR i's waiters are a chain
	// through waiter.next in arrival order, from pool slot waitHead[i] to
	// waitTail[i] (-1 for none); the free slots are a chain from waitFree.
	// The pool grows only when a merge storm outruns its construction size.
	waiters  []waiter
	waitHead []int32
	waitTail []int32
	waitFree int32

	respQ []mem.Response // responses to the level above, ready-ordered
	arena *mem.Arena     // what the array was built from; respQ grows from it

	// The handlers are shared by the caches of an array and told the id of
	// the cache that calls them.
	onResp    func(i int, r *mem.Response)
	onAccess  func(i int, ev *AccessEvent)
	onPFEvict func(i int, trigger uint64, addr mem.Addr)

	// down buffers the request forwarded to the lower level so the pointer
	// handed through the Lower interface never forces a per-miss heap
	// allocation; accessEv likewise for the training callback. Callees
	// consume both synchronously.
	down     mem.Request
	accessEv AccessEvent

	// Sleep protocol (DESIGN.md "Time model & event horizons"). All of it is
	// rebuilt state, never snapshotted: a restored cache retries once and
	// re-arms its memos.
	//
	// pops is the epoch requesters refused by a full inQ watch: it advances
	// on every inQ pop. staller is the lower level's mem.Staller extension
	// (nil: refusals by the lower are retried every cycle). headMSHR marks
	// a head blocked on a full MSHR file — only a Fill can change that
	// verdict, and Fill clears the mark; headLow/wbLow watch the lower after
	// it refused the head's miss (still buffered in down) or the writeback
	// queue's front.
	pops     uint64
	staller  mem.Staller
	headMSHR bool
	headLow  mem.Watch
	wbLow    mem.Watch

	shift uint // log2(cfg.Sets): tag = lineID >> shift
	cycle uint64
	stats Stats
}

// New builds a cache: the one-member case of NewArray. lower may be nil for
// a cache whose misses should never happen (tests); issuing a miss with a
// nil lower panics.
func New(cfg Config, lower Lower) (*Cache, error) {
	cs, err := NewArray(nil, cfg, 1, func(int) Lower { return lower })
	if err != nil {
		return nil, err
	}
	return &cs[0], nil
}

// NewArray builds n caches of one configuration — one level of the
// hierarchy, cache i missing to lower(i) — and gives each its index as its
// id. Every column and queue of every cache is carved from one slab per
// type (mem.Carve), so the level costs a fixed handful of allocations
// whatever n is, and each carved region ends where it does: what can grow —
// the waiter pool, and the writeback and response queues past their first
// mem.RingSlots — grows into a new backing array of its own. The input
// queue never grows: Issue refuses past Config.InQ, and its ring holds that
// many rounded up to a power of two. The slabs come from a (mem.Make).
func NewArray(a *mem.Arena, cfg Config, n int, lower func(i int) Lower) ([]Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.InQ <= 0 {
		cfg.InQ = 16
	}
	if cfg.Latency == 0 {
		cfg.Latency = 1
	}
	kind := policyKinds[cfg.Policy]
	sets, ways, mshrs := cfg.Sets, cfg.Ways, cfg.MSHRs
	lines := sets * ways
	cols := lines // tags
	if cfg.Level < mem.LevelLLC {
		cols += lines // trigger
	}
	slabWords := cols + 3*sets
	perMSHR := 1
	if cfg.Level <= mem.LevelL1 {
		perMSHR = l1WaitersPerMSHR
	}
	policyWords, policyBytes := kind.columns(sets, ways)
	bitWords := table.BitWords(mshrs)

	cs := mem.Make[Cache](a, n)
	words := mem.Make[uint64](a, n*(slabWords+policyWords+2*bitWords+mshrs))
	var bytes []uint8
	if policyBytes > 0 {
		bytes = mem.Make[uint8](a, n*policyBytes)
	}
	addrs := mem.Make[mem.Addr](a, n*mshrs)
	pfReqs := mem.Make[mem.Request](a, n*mshrs)
	waiters := mem.Make[waiter](a, n*mshrs*perMSHR)
	ends := mem.Make[int32](a, n*2*mshrs)
	inQSlots := 1 << bits.Len(uint(cfg.InQ-1))
	inQs := mem.Make[queued](a, n*inQSlots)
	wbQs := mem.Make[mem.Request](a, n*mem.RingSlots)
	respQs := mem.Make[mem.Response](a, n*mem.RingSlots)
	for i := range cs {
		c := &cs[i]
		c.cfg, c.id, c.lower, c.arena = cfg, i, lower(i), a
		c.staller, _ = c.lower.(mem.Staller)
		c.shift = uint(bits.TrailingZeros(uint(sets)))
		c.slab = mem.Carve(&words, slabWords)
		c.tags = c.slab[:lines:lines]
		if cols > lines {
			c.trigger = c.slab[lines:cols:cols]
		}
		c.dirtyBits = c.slab[cols : cols+sets : cols+sets]
		c.pfBits = c.slab[cols+sets : cols+2*sets : cols+2*sets]
		c.validBits = c.slab[cols+2*sets:]
		c.policy.carve(kind, sets, ways, &words, &bytes)
		c.mshrValid = table.CarveBits(&words, mshrs)
		c.mshrPF = table.CarveBits(&words, mshrs)
		c.mshrLine = mem.Carve(&addrs, mshrs)
		c.mshrFirst = mem.Carve(&words, mshrs)
		c.mshrPfReq = mem.Carve(&pfReqs, mshrs)
		c.waiters = mem.Carve(&waiters, mshrs*perMSHR)
		c.waitHead, c.waitTail = mem.Carve(&ends, mshrs), mem.Carve(&ends, mshrs)
		c.resetWaiters()
		c.inQ.Adopt(mem.Carve(&inQs, inQSlots))
		c.wbQ.Adopt(mem.Carve(&wbQs, mem.RingSlots))
		c.respQ = mem.Carve(&respQs, mem.RingSlots)[:0]
	}
	return cs, nil
}

// String names the cache in error and panic text: its configured label, else
// its level and id.
func (c *Cache) String() string {
	if c.cfg.Name != "" {
		return c.cfg.Name
	}
	return fmt.Sprintf("%s-%d", c.cfg.Level, c.id)
}

// resetWaiters empties every MSHR's chain and frees the whole pool, in slot
// order.
func (c *Cache) resetWaiters() {
	for i := range c.waitHead {
		c.waitHead[i], c.waitTail[i] = -1, -1
	}
	c.waitFree = -1
	c.freeSlots(0)
}

// freeSlots puts pool slots [from, len) on the free chain, lowest first.
func (c *Cache) freeSlots(from int) {
	for j := len(c.waiters) - 1; j >= from; j-- {
		c.waiters[j].next = c.waitFree
		c.waitFree = int32(j)
	}
}

// park appends req, arriving now, to MSHR i's waiter chain.
func (c *Cache) park(i int, req *mem.Request) {
	if c.waitFree < 0 {
		c.growWaiters()
	}
	j := c.waitFree
	w := &c.waiters[j]
	c.waitFree = w.next
	w.req, w.arrived, w.next = *req, c.cycle, -1
	if t := c.waitTail[i]; t >= 0 {
		c.waiters[t].next = j
	} else {
		c.waitHead[i] = j
	}
	c.waitTail[i] = j
}

// growWaiters doubles the waiter pool. Chains are pool indices, so they
// survive the move; the pool's carved region ends at its length, so the
// append moves it to a backing array of its own.
func (c *Cache) growWaiters() {
	n := len(c.waiters)
	c.waiters = append(c.waiters, make([]waiter, n)...)
	c.freeSlots(n)
}

// unpark returns MSHR i's whole waiter chain to the free chain.
func (c *Cache) unpark(i int) {
	if h := c.waitHead[i]; h >= 0 {
		c.waiters[c.waitTail[i]].next = c.waitFree
		c.waitFree = h
		c.waitHead[i], c.waitTail[i] = -1, -1
	}
}

// waitCount returns the number of requests waiting on MSHR i.
func (c *Cache) waitCount(i int) int {
	n := 0
	for j := c.waitHead[i]; j >= 0; j = c.waiters[j].next {
		n++
	}
	return n
}

// MustNew panics on config errors.
func MustNew(cfg Config, lower Lower) *Cache {
	c, err := New(cfg, lower)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SlabWords returns the line-state slab size in words (SaveState sizes its
// buffer from it).
func (c *Cache) SlabWords() int { return len(c.slab) }

// OnLevelResponse registers the response sink for the level above: one
// handler serves a whole array and is told the id of the cache it is called
// for. The response pointer is only valid for the duration of the call.
func (c *Cache) OnLevelResponse(f func(i int, r *mem.Response)) { c.onResp = f }

// OnResponse registers the response sink of a cache that needs no id.
func (c *Cache) OnResponse(f func(*mem.Response)) {
	c.onResp = func(_ int, r *mem.Response) { f(r) }
}

// OnAccess registers the prefetcher-training callback (demand stream), told
// the cache's id. The event pointer is only valid for the duration of the
// call.
func (c *Cache) OnAccess(f func(i int, ev *AccessEvent)) { c.onAccess = f }

// OnPFEvict registers a callback, told the cache's id, fired when a
// prefetched line is evicted without ever being demand-touched (negative
// usefulness feedback for PPF). It panics at the LLC, which keeps no trigger
// column to report from.
func (c *Cache) OnPFEvict(f func(i int, trigger uint64, addr mem.Addr)) {
	if c.trigger == nil {
		panic(fmt.Sprintf("cache %v: OnPFEvict at %v, which keeps no trigger column (only levels below the LLC do)",
			c, c.cfg.Level))
	}
	c.onPFEvict = f
}

// Issue enqueues a request (copied; the pointer is not retained). Returns
// false (caller must retry) when the input queue is full — except
// prefetches, which are dropped instead of retried, matching the paper's
// "dropped and not allocated to the MSHR" semantics.
func (c *Cache) Issue(req *mem.Request) bool {
	if c.Full() {
		if req.Type == mem.Prefetch && !req.Owned {
			c.stats.PFDropped++
			return true
		}
		return false
	}
	// The request arrives next cycle; the tag lookup then takes Latency.
	c.inQ.Push(queued{req: *req, ready: c.cycle + 1 + c.cfg.Latency})
	if req.Type == mem.Prefetch && req.FillLevel == mem.LevelNone {
		c.inQ.At(c.inQ.Len() - 1).req.FillLevel = mem.LevelL1
	}
	if invariant.Enabled {
		invariant.Check(c.inQ.Len() <= c.cfg.InQ,
			"cache %v: input queue occupancy %d exceeds depth %d",
			c, c.inQ.Len(), c.cfg.InQ)
	}
	return true
}

// TryIssue is Issue without the silent prefetch drop: it returns false when
// the input queue is full so the caller (the per-core prefetch queue) can
// hold the request and retry, modelling ChampSim's PQ.
func (c *Cache) TryIssue(req *mem.Request) bool {
	if c.Full() {
		return false
	}
	return c.Issue(req)
}

// Probe reports whether the line is present (no state update; test/diagnostic
// helper and Hermes' filter input).
func (c *Cache) Probe(addr mem.Addr) bool {
	set, tag := c.index(addr)
	if c.validBits[set] == 0 {
		return false // empty set: skip the tag column scan entirely
	}
	return c.findWay(set, tag) >= 0
}

// findWay returns the way holding tag in set, or -1. Packed tags make the
// scan one word compare per way with no validity branch; the one-time
// reslice bounds the column so the compiler drops the per-way bounds check.
func (c *Cache) findWay(set int, tag uint64) int {
	key := tag<<1 | 1
	base := set * c.cfg.Ways
	ways := c.tags[base : base+c.cfg.Ways]
	for w := range ways {
		if ways[w] == key {
			return w
		}
	}
	return -1
}

// mshrFind returns the lowest valid MSHR index tracking lineAddr, or -1: a
// word-wide walk of the occupancy bitmap (TrailingZeros over each word)
// that visits set bits in the same ascending order as a per-entry scan.
func (c *Cache) mshrFind(lineAddr mem.Addr) int {
	for wi, w := range c.mshrValid.Words() {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if c.mshrLine[i] == lineAddr {
				return i
			}
		}
	}
	return -1
}

// MSHRInUse returns the number of valid MSHR entries.
func (c *Cache) MSHRInUse() int { return c.mshrValid.Count() }

// MSHRFree returns the number of free MSHRs.
func (c *Cache) MSHRFree() int { return c.cfg.MSHRs - c.MSHRInUse() }

// InQLen returns the input queue occupancy.
func (c *Cache) InQLen() int { return c.inQ.Len() }

func (c *Cache) index(addr mem.Addr) (set int, tag uint64) {
	lineID := addr.LineID()
	set = int(lineID & uint64(c.cfg.Sets-1))
	tag = lineID >> c.shift
	return
}

// Tick advances one cycle: drain writebacks, process ready requests, deliver
// ready responses upward.
func (c *Cache) Tick(cycle uint64) {
	c.cycle = cycle
	c.drainWritebacks()
	c.process()
	c.deliver()
}

// NextEvent returns the earliest cycle >= now at which Tick can make
// progress. Queued responses deliver every cycle; queued writebacks drain
// every cycle unless the lower level refused the front one and has freed no
// slot since; queued requests mature at the head entry's lookup-ready time,
// and a matured head that the last Tick left blocked sleeps until the event
// that can unblock it — any Fill for a full MSHR file, a freed slot for a
// busy lower level. A cache with nothing but sleepers is quiescent
// (mem.NoEvent), as is one whose queues are all empty even with MSHRs in
// flight: fills arrive through Fill, which clears the head's memo and
// repopulates the response queue, pulling the horizon back to "now" before
// the next Tick gate.
func (c *Cache) NextEvent(now uint64) uint64 {
	if len(c.respQ) > 0 || (c.wbQ.Len() > 0 && !c.wbLow.Holds()) {
		return now
	}
	if c.inQ.Len() > 0 {
		if r := c.inQ.Front().ready; r > now {
			return r
		}
		if !c.headMSHR && !c.headLow.Holds() {
			return now
		}
	}
	return mem.NoEvent
}

// SkipCycles replaces Tick for the n cycles [from, from+n) the simulation
// loop proved idle via NextEvent; from is the cycle after the clock. The
// clock lands on from+n-1 — Issue stamps lookup maturity relative to it, so
// it must track the global cycle even across skips — and every sleeper is
// charged what its per-cycle retries would have counted: MSHRFullEvents for
// a head blocked on the MSHR file, the lower level's own refusal accounting
// (mem.Staller.Refused) for a head or writeback it refused.
func (c *Cache) SkipCycles(from, n uint64) {
	if n == 0 {
		return
	}
	last := from + n - 1
	if invariant.Enabled {
		// A fresh cache's clock stands at 0 before its first cycle too.
		invariant.Check(from == c.cycle+1 || from == 0 && c.cycle == 0,
			"cache %v: skipping [%d,%d) with its clock at %d", c, from, from+n, c.cycle)
		invariant.Check(c.NextEvent(last) > last,
			"cache %v: tick skipped at cycle %d with work pending (inQ=%d wbQ=%d resp=%d)",
			c, last, c.inQ.Len(), c.wbQ.Len(), len(c.respQ))
	}
	if c.wbQ.Len() > 0 || c.headMSHR || c.headLow.Holds() {
		c.chargeSleepers(n)
	}
	c.cycle = last
}

// chargeSleepers applies n cycles of refused retries. NextEvent vouched that
// whatever is queued is asleep, so a non-empty wbQ means its front is
// refused, and a set head memo means the matured head is. Under clipdebug
// each verdict is re-derived from scratch.
func (c *Cache) chargeSleepers(n uint64) {
	if c.wbQ.Len() > 0 {
		c.staller.Refused(c.wbQ.Front(), n)
	}
	switch {
	case c.headMSHR:
		if invariant.Enabled {
			req := &c.inQ.Front().req
			set, tag := c.index(req.Addr)
			invariant.Check(c.mshrValid.FirstClear() < 0 && c.findWay(set, tag) < 0 && c.mshrFind(req.Addr.Line()) < 0,
				"cache %v: head %x slept on MSHR-full but its retry would not block", c, uint64(req.Addr))
		}
		c.stats.MSHRFullEvents += n
	case c.headLow.Holds():
		// down still holds the refused miss: only lookup writes it, and the
		// blocked head keeps lookup from running.
		c.staller.Refused(&c.down, n)
	}
}

// StallEpoch implements mem.Staller for the level above: a full input queue
// refuses everything but a droppable prefetch, purely, until a pop.
func (c *Cache) StallEpoch(req *mem.Request) *uint64 {
	if !c.Full() || (req.Type == mem.Prefetch && !req.Owned) {
		return nil
	}
	return &c.pops
}

// Refused implements mem.Staller: a refused Issue counts nothing here.
func (c *Cache) Refused(req *mem.Request, n uint64) {
	if invariant.Enabled {
		invariant.Check(c.StallEpoch(req) != nil,
			"cache %v: %d retries of %v %x charged as refused, but Issue would accept",
			c, n, req.Type, uint64(req.Addr))
	}
}

// Cycle returns the cache's clock: the last cycle Tick or SkipCycles
// accounted for. Issue, Fill and SkipCycles all measure from it, so a caller
// that lets the cache sleep through cycles must skip it up to date first.
func (c *Cache) Cycle() uint64 { return c.cycle }

// LowerWaits returns the requests this cache currently sleeps on its lower
// level for — the blocked head's forwarded miss and the refused front of the
// writeback queue, nil for each that is not waiting — so the owner can tell
// which of the lower level's dequeue epochs end the sleep.
func (c *Cache) LowerWaits() (head, wb *mem.Request) {
	if c.headLow.Holds() {
		head = &c.down
	}
	if c.wbQ.Len() > 0 && c.wbLow.Holds() {
		wb = c.wbQ.Front()
	}
	return head, wb
}

// RecheckLower re-asks the lower level about each refusal this cache sleeps
// on whose epoch has moved, re-arming the ones it still vouches for. It
// reports whether every refusal stands: the cache can sleep on, the retries
// it skips charged in bulk as before. False means the next Tick's retry may
// be accepted. Nothing else changes either way.
func (c *Cache) RecheckLower() bool {
	if c.headLow.Moved() {
		if c.headLow = mem.WatchRefusal(c.staller, &c.down); !c.headLow.Holds() {
			return false
		}
	}
	if c.wbQ.Len() > 0 && c.wbLow.Moved() {
		if c.wbLow = mem.WatchRefusal(c.staller, c.wbQ.Front()); !c.wbLow.Holds() {
			return false
		}
	}
	return true
}

// Full reports whether the input queue is at capacity (every Issue but a
// droppable prefetch is refused).
func (c *Cache) Full() bool { return c.inQ.Len() >= c.cfg.InQ }

func (c *Cache) drainWritebacks() {
	c.wbLow = mem.Watch{}
	for c.wbQ.Len() > 0 {
		if c.lower == nil {
			return
		}
		if !c.lower.Issue(c.wbQ.Front()) {
			c.wbLow = mem.WatchRefusal(c.staller, c.wbQ.Front())
			return
		}
		c.wbQ.PopFront()
		c.stats.Writebacks++
	}
}

func (c *Cache) process() {
	c.headMSHR, c.headLow = false, mem.Watch{}
	ports := c.cfg.Ports
	for ports > 0 && c.inQ.Len() > 0 {
		q := c.inQ.Front()
		if q.ready > c.cycle {
			return // head not ready; FIFO models lookup pipeline
		}
		first := !q.counted
		q.counted = true
		if !c.lookup(&q.req, first) {
			return // structural stall (MSHR full / lower busy): head blocks
		}
		c.inQ.PopFront()
		c.pops++
		ports--
	}
}

// lookup performs the tag check; returns false when the request could not be
// handled this cycle and should block the input queue. first is false on
// retries of a structurally-stalled head, so stats count each request once.
// req points into the input queue head and is not retained.
func (c *Cache) lookup(req *mem.Request, first bool) bool {
	set, tag := c.index(req.Addr)

	// Writeback from above: update in place or install dirty; no response.
	if req.Type == mem.Writeback {
		if w := c.findWay(set, tag); w >= 0 {
			c.dirtyBits[set] |= 1 << uint(w)
			c.policy.OnHit(set, w)
			return true
		}
		c.install(req, true)
		return true
	}

	isDemand := req.Type == mem.Load || req.Type == mem.Store
	if first {
		if req.Type == mem.Store {
			c.stats.StoreAccesses++
		} else if req.Type == mem.Load {
			c.stats.DemandAccesses++
		}
	}

	if w := c.findWay(set, tag); w >= 0 {
		// Hit.
		c.policy.OnHit(set, w)
		wbit := uint64(1) << uint(w)
		hitPF := c.pfBits[set]&wbit != 0
		if isDemand && hitPF {
			c.pfBits[set] &^= wbit
			c.stats.PFUseful++
		}
		if req.Type == mem.Store {
			c.dirtyBits[set] |= wbit
		}
		if req.Type == mem.Load || req.Type == mem.Store {
			// Stores respond too: a lower-level store hit must still fill
			// the upper level whose MSHR forwarded it (write-allocate); the
			// core-level sink ignores store responses.
			if req.Type == mem.Load {
				c.stats.DemandHits++
			}
			c.respond(req, c.cfg.Level, c.cycle, hitPF, false)
		}
		if req.Type == mem.Prefetch {
			// Present here; still propagate upward so higher levels (down to
			// the request's fill level) install the line.
			c.respond(req, c.cfg.Level, c.cycle, false, false)
		}
		if c.onAccess != nil && isDemand {
			c.accessEv = AccessEvent{Req: *req, Hit: true, Cycle: c.cycle, HitPrefetchedLine: hitPF}
			if c.trigger != nil {
				c.accessEv.TriggerIP = c.trigger[set*c.cfg.Ways+w]
			}
			c.onAccess(c.id, &c.accessEv)
		}
		return true
	}

	// Miss.
	if first {
		if req.Type == mem.Load {
			c.stats.DemandMisses++
		}
		if c.onAccess != nil && isDemand {
			c.accessEv = AccessEvent{Req: *req, Hit: false, Cycle: c.cycle}
			c.onAccess(c.id, &c.accessEv)
		}
	}

	// MSHR merge? The bitmap walk visits entries in the same ascending order
	// as the old first-match entry scan.
	lineAddr := req.Addr.Line()
	if i := c.mshrFind(lineAddr); i >= 0 {
		if req.Type == mem.Prefetch && !req.Owned {
			return true // already being fetched; fresh prefetch discarded
		}
		if req.Type != mem.Prefetch && c.mshrPF.Test(i) {
			c.stats.PFLate++ // demand caught an in-flight prefetch: late
		}
		// Demands and owned prefetches (an upper-level MSHR depends on
		// the fill coming back up) wait for the outstanding fill.
		c.park(i, req)
		return true
	}

	// Allocate MSHR at the lowest free slot.
	idx := c.mshrValid.FirstClear()
	if idx < 0 {
		c.stats.MSHRFullEvents++
		if req.Type == mem.Prefetch && !req.Owned {
			c.stats.PFDropped++
			return true // drop prefetch, don't block
		}
		c.headMSHR = true
		return false
	}
	if c.lower == nil {
		panic(fmt.Sprintf("cache %v: miss with no lower level", c))
	}
	c.down = *req
	c.down.Addr = lineAddr
	if c.down.Type == mem.Prefetch {
		c.down.Owned = true // this MSHR now depends on the fill returning
	}
	if !c.lower.Issue(&c.down) {
		if req.Type == mem.Prefetch && !req.Owned {
			c.stats.PFDropped++
			return true
		}
		c.headLow = mem.WatchRefusal(c.staller, &c.down)
		return false // lower busy: retry once it frees a slot
	}
	if invariant.Enabled {
		invariant.Check(!c.mshrValid.Test(idx) && c.waitHead[idx] < 0,
			"cache %v: allocating live MSHR %d (line %x, %d waiters)",
			c, idx, uint64(c.mshrLine[idx]), c.waitCount(idx))
	}
	c.mshrValid.Set(idx)
	c.mshrLine[idx] = lineAddr
	c.mshrFirst[idx] = c.cycle
	c.mshrPfReq[idx] = *req
	if req.Type == mem.Prefetch {
		c.mshrPF.Set(idx)
	} else {
		c.mshrPF.Clear(idx)
	}
	if invariant.Enabled {
		invariant.Check(c.MSHRInUse() <= c.cfg.MSHRs,
			"cache %v: MSHR occupancy %d exceeds capacity %d",
			c, c.MSHRInUse(), c.cfg.MSHRs)
	}
	if req.Type != mem.Prefetch {
		c.park(idx, req)
	} else {
		c.stats.PFIssued++
	}
	return true
}

// Fill delivers a response from the lower level: install the line, wake
// MSHR waiters. The response is consumed during the call.
func (c *Cache) Fill(resp *mem.Response) {
	// A fill frees an MSHR or installs a line: either can change a blocked
	// head's verdict, so it retries on the next Tick.
	c.headMSHR, c.headLow = false, mem.Watch{}
	lineAddr := resp.Req.Addr.Line()
	if i := c.mshrFind(lineAddr); i >= 0 {
		// A prefetch-allocated MSHR that gathered demand waiters delivers to
		// them; the fill is then counted as late-useful at respond time.
		isPrefetch := c.mshrPF.Test(i)
		if isPrefetch {
			c.stats.PFFills++
		}
		c.install(&resp.Req, false)
		head := c.waitHead[i]
		if isPrefetch && head >= 0 {
			// Demand(s) merged into this prefetch: the line is demand-touched
			// already.
			c.touchAsDemand(lineAddr)
		}
		for j := head; j >= 0; j = c.waiters[j].next {
			w := &c.waiters[j]
			if w.req.Type == mem.Store {
				c.setDirty(lineAddr)
			}
			if w.req.Type == mem.Load {
				// Demand miss latency measured per waiter from its own
				// arrival — covering both plain misses and demands that
				// merged into an in-flight prefetch.
				c.stats.DemandMissLatency.Add(c.cycle - w.arrived)
			}
		}
		for j := head; j >= 0; j = c.waiters[j].next {
			c.respond(&c.waiters[j].req, resp.ServedBy, c.cycle, isPrefetch, isPrefetch)
		}
		if isPrefetch {
			// Propagate the prefetch fill toward its target level.
			c.respond(&c.mshrPfReq[i], resp.ServedBy, c.cycle, false, false)
		}
		c.mshrValid.Clear(i)
		c.unpark(i)
		if invariant.Enabled {
			// A line must never be tracked by two MSHRs: merges are required
			// to land on the existing entry.
			for j := c.mshrValid.First(); j >= 0; j = c.mshrValid.Next(j + 1) {
				invariant.Check(c.mshrLine[j] != lineAddr,
					"cache %v: duplicate MSHR %d for line %x", c, j, uint64(lineAddr))
			}
		}
		return
	}
	// No MSHR (e.g. a prefetch filled below our allocation point): install
	// anyway if the fill level warrants it.
	c.stats.OrphanFills++
	c.install(&resp.Req, false)
	if resp.Req.Type == mem.Prefetch {
		c.stats.PFFills++
	}
}

// setDirty marks a present line dirty (store data arrived with the fill).
func (c *Cache) setDirty(addr mem.Addr) {
	set, tag := c.index(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.dirtyBits[set] |= 1 << uint(w)
	}
}

// touchAsDemand clears the prefetch bit after a merged-demand fill.
func (c *Cache) touchAsDemand(addr mem.Addr) {
	set, tag := c.index(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.pfBits[set] &^= 1 << uint(w)
	}
}

// install places a line, evicting as needed. req is read, never retained.
func (c *Cache) install(req *mem.Request, dirty bool) {
	set, tag := c.index(req.Addr)
	base := set * c.cfg.Ways

	// Already present (races between merged fills): update only.
	if w := c.findWay(set, tag); w >= 0 {
		if dirty {
			c.dirtyBits[set] |= 1 << uint(w)
		}
		return
	}
	// Lowest invalid way, if any — a TrailingZeros64 pick off the valid
	// bitmap (fills always take the lowest free way, exactly the order of
	// the per-way tag==0 scan this replaces).
	way := -1
	if free := ^c.validBits[set] & waysMask(c.cfg.Ways); free != 0 {
		way = bits.TrailingZeros64(free)
	}
	if way < 0 {
		way = c.policy.Victim(set)
		wbit := uint64(1) << uint(way)
		c.stats.Evictions++
		if c.pfBits[set]&wbit != 0 {
			c.stats.PFPolluting++
			if c.onPFEvict != nil {
				vLine := (c.tags[base+way]>>1)<<c.shift | uint64(set)
				c.onPFEvict(c.id, c.trigger[base+way], mem.Addr(vLine<<mem.LineShift))
			}
		}
		if c.dirtyBits[set]&wbit != 0 {
			// Reconstruct victim address from set+tag.
			vLine := (c.tags[base+way]>>1)<<c.shift | uint64(set)
			c.wbQ.Push(mem.Request{
				Addr: mem.Addr(vLine << mem.LineShift),
				Type: mem.Writeback, Core: req.Core, IssueCycle: c.cycle,
			})
		}
	}
	wbit := uint64(1) << uint(way)
	c.tags[base+way] = tag<<1 | 1
	c.validBits[set] |= wbit
	if c.trigger != nil {
		c.trigger[base+way] = req.IP
	}
	if dirty {
		c.dirtyBits[set] |= wbit
	} else {
		c.dirtyBits[set] &^= wbit
	}
	if req.Type == mem.Prefetch {
		c.pfBits[set] |= wbit
	} else {
		c.pfBits[set] &^= wbit
	}
	c.policy.OnFill(set, way, req)
}

// respond queues a response to the level above, writing it directly into
// the response queue's next slot: the caller passes the request pointer and
// the scalar fields instead of a built-up mem.Response, so the only copy is
// the one unavoidable Request move into the queue (the by-value path this
// replaces built an 80-byte Response temp and then duff-copied it again on
// append). A full queue moves into a slab twice its size from the cache's
// arena, so a System built on the memory of a closed one finds the queues
// its run grew already there.
//
// Store (write-allocate) responses must still propagate upward so the
// upper levels fill and wake their MSHRs — demand loads merged behind a
// store miss depend on it. The core-level sink ignores them (stores
// complete through the store buffer, ROBIndex < 0).
func (c *Cache) respond(req *mem.Request, servedBy mem.Level, done uint64, wasPF, latePF bool) {
	if req.Type == mem.Prefetch && req.FillLevel >= c.cfg.Level {
		return // reached (or passed) its fill level: terminate
	}
	n := len(c.respQ)
	if n == cap(c.respQ) {
		grown := mem.Make[mem.Response](c.arena, max(2*n, mem.RingSlots))
		copy(grown, c.respQ)
		c.respQ = grown[:n]
	}
	c.respQ = c.respQ[:n+1]
	r := &c.respQ[n]
	r.Req = *req
	r.ServedBy = servedBy
	r.DoneCycle = done
	r.WasPrefetch = wasPF
	r.LatePF = latePF
}

func (c *Cache) deliver() {
	if c.onResp == nil {
		c.respQ = c.respQ[:0]
		return
	}
	for i := range c.respQ {
		c.onResp(c.id, &c.respQ[i])
	}
	c.respQ = c.respQ[:0]
}
