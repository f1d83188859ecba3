// Package cpu models the out-of-order core of the paper's baseline system
// (Table 3): 512-entry ROB, 6-issue, 4-retire, hashed perceptron branch
// prediction, and — crucially for CLIP — precise head-of-ROB stall accounting
// per load and per service level.
//
// The model is a timing skeleton rather than a full dataflow scheduler:
// instructions enter the ROB in order, complete after an op-dependent latency
// (loads complete when their memory response returns), and retire in order.
// A load marked DependsOnPrevLoad cannot issue until the youngest older load
// has completed, which reproduces the MLP collapse of pointer chasing. This
// captures exactly the signals every evaluated criticality predictor consumes:
// which loads stall the ROB head, for how long, from which level, at what ROB
// occupancy and MLP.
//
// The ROB is a structure of arrays: the per-slot flags live in []uint64
// bitmaps (valid/done/issued/chain plus the pending- and ready-load sets) and
// the payload fields in flat columns, and dispatch fills slots in per-kind
// spans between branches. A non-load instruction needs no completion event:
// dispatch writes its completion cycle, and it is done once the core's clock
// has reached that cycle (done). Retirement is in order, so only the head's
// completion cycle bounds the core's horizon. See DESIGN.md §10 for the
// layout.
package cpu

import (
	"fmt"
	"math/bits"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/trace"
)

// Config sizes the core.
type Config struct {
	ROBSize    int // reorder buffer entries (paper: 512)
	IssueWidth int // dispatch width (paper: 6)
	LQSize     int // load queue entries
}

// Table 3's core parameters that no configuration varies.
const (
	retireWidth       = 4  // retire width
	loadPorts         = 2  // loads issued to L1D per cycle (LOAD width)
	mispredictPenalty = 12 // fetch redirect penalty in cycles
)

// DefaultConfig matches Table 3.
func DefaultConfig() Config {
	return Config{
		ROBSize:    512,
		IssueWidth: 6,
		LQSize:     96,
	}
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.ROBSize < 4 || c.ROBSize > mem.MaxID || c.IssueWidth < 1 || c.LQSize < 1 {
		return fmt.Errorf("cpu: invalid config %+v", c)
	}
	return nil
}

// MemoryPort is the core's view of the L1D. Issue returns false when the
// cache cannot accept the request this cycle (ports or MSHRs exhausted); the
// core retries — every cycle, or, when the port also implements mem.Staller
// and vouches the refusal repeats, once the port frees a slot.
type MemoryPort interface {
	// Issue consumes the request during the call (copied if queued); the
	// pointer is not retained.
	Issue(req *mem.Request) bool
}

// FetchChecker models the instruction-fetch path: it returns the stall (in
// cycles) core incurs to fetch the 64B block containing ip. The front end
// consults it whenever dispatch crosses a block boundary; one checker can
// serve every core, told which one asks.
type FetchChecker func(core int, ip uint64) uint64

// LoadEvent fires when a load response returns to the core. It carries every
// signal the criticality predictors (CLIP and the six baselines) train on.
type LoadEvent struct {
	Core            int
	IP              uint64
	Addr            mem.Addr
	ServedBy        mem.Level
	Latency         uint64
	StalledHead     bool   // ROB-stall flag set when the response arrived
	AtHead          bool   // the load itself was the stalled ROB head
	HeadStallCycles uint64 // cycles this load has stalled the head so far
	ROBOccupancy    int
	MLPAtComplete   int // other loads still outstanding
	WasPrefetchHit  bool
	LatePF          bool
	Cycle           uint64

	// BranchHist and CritHist snapshot the core's global branch and
	// criticality history registers at completion time — the inputs to
	// CLIP's critical signature.
	BranchHist uint32
	CritHist   uint32
}

// RetireEvent fires when an instruction retires, for predictors that walk the
// retire stream (CATCH's dependency graph, FVP's retire-window confidence).
type RetireEvent struct {
	Core        int
	IP          uint64
	Op          trace.Op
	Addr        mem.Addr
	IsLoad      bool
	ServedBy    mem.Level
	StallCycles uint64 // commit stalls attributed to this instruction
	DependChain bool   // load was data-dependent on an older load
	Cycle       uint64
}

// Stats aggregates core-level counters.
type Stats struct {
	Cycles            uint64
	Retired           uint64
	Loads             uint64
	Stores            uint64
	Branches          uint64
	Mispredicts       uint64
	ROBStallCycles    uint64
	StallsByLevel     [5]uint64 // indexed by mem.Level
	LoadLatency       [5]struct{ Sum, Count uint64 }
	FetchStallCycles  uint64
	LoadsStalledHead  uint64 // loads whose response arrived during a head stall with miss level >= L2
	L1DAccesses       uint64 // loads+stores issued to L1D (APC numerator)
	CriticalResponses uint64 // responses meeting the paper's critical-load definition
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// issueStall classifies what the last issueLoads left behind.
type issueStall uint8

const (
	// issueOpen: no ready load, or one that may issue next cycle.
	issueOpen issueStall = iota
	// issueRefused: the port refused the oldest ready load and vouches
	// (mem.Staller) that a retry repeats the refusal until it frees a slot.
	// Wakes on that slot or on CompleteLoad; the retries' accounting is
	// charged in bulk by SkipCycles. A store dispatched later in the same Tick
	// goes to the port too, so dispatch asks the port again (recheckRefusal).
	issueRefused
	// issueDry: ready loads exist, but none within the scanLimit window the
	// scheduler examines. Only CompleteLoad can set a ready bit inside the
	// window (dispatch appends beyond it), so the scan repeats until then.
	issueDry
	// issueStale: the memo was lost (snapshot restore); the core must tick.
	issueStale
)

// Core is one simulated core.
type Core struct {
	cfg  Config
	id   int
	gen  trace.Generator
	port MemoryPort

	// The ROB as a structure of arrays. The flag bitmaps pack one bit per
	// slot into []uint64 words (bit i of word i/64 is slot i):
	//
	//	validW  — slot holds a dispatched, un-retired instruction
	//	doneW   — instruction has completed: a load's response returned, or a
	//	          store or a load the full LQ turned away was dispatched; a
	//	          non-load's bit is set when it retires or is saved (see done)
	//	issuedW — load was sent to the L1D (diagnostics/invariants only)
	//	chainW  — load was data-dependent on an older load (RetireEvent)
	//	pendW   — load sits in the load queue waiting to issue
	//	readyW  — pending load whose producer (if any) has completed
	//
	// The payload columns are indexed by slot and carved from the three
	// slabs (uint64/uint8/int32) NewCores allocates for all cores, so the
	// cores cost a fixed handful of allocations regardless of ROB size or
	// core count. addrCol holds mem.Addr values,
	// opCol trace.Op values and servedCol mem.Level values as their raw
	// machine types; accessors cast at the use site. depCol records the
	// producer slot a load was *blocked on* at dispatch (-1 otherwise);
	// childCol is the inverse link used by CompleteLoad to wake the single
	// dependent. doneAt is the completion cycle of a non-load slot, written at
	// dispatch.
	validW, doneW, issuedW, chainW []uint64
	pendW, readyW                  []uint64
	ipCol                          []uint64
	addrCol                        []uint64 // mem.Addr values
	stallCol                       []uint64 // head-of-ROB stall cycles attributed
	doneAt                         []uint64
	opCol                          []uint8 // trace.Op values
	servedCol                      []uint8 // mem.Level values
	depCol, childCol               []int32

	robSize    int
	head, tail int
	count      int

	// pendHead is the oldest pending load's slot (-1 when pendW is empty);
	// pendLen counts pending loads (the load-queue occupancy). The pending
	// set never contains stale slots — loads leave it exactly when issued —
	// so a ring scan of pendW from pendHead visits loads in age order.
	pendHead int
	pendLen  int
	// readyCount counts pending loads that are issuable right now. It is
	// maintained at dispatch (producer already complete, or no producer) and
	// at CompleteLoad (producer returns → wake the blocked dependent), so
	// NextEvent never rescans the load queue.
	readyCount int

	cycle           uint64
	fetchStallUntil uint64
	budget          uint64 // instructions to retire before Finished
	retiredTotal    uint64 // lifetime retires (survives ResetStats)
	finishCycle     uint64 // cycle the budget was reached (0 = not yet)
	outstanding     int    // loads in flight
	lastLoadSlot    int    // youngest load's ROB slot (for dependence)

	// wake is set by CompleteLoad: any cached quiescence horizon is stale
	// (a returned producer can unblock a dependent load) and the core must
	// tick. Cleared on Tick.
	wake bool

	// Issue-stall memo, rewritten by every issueLoads: why ready loads did
	// not issue, when the reason provably repeats (see issueStall). It is
	// rebuilt state, never snapshotted — a loading State marks it stale,
	// which forces one real Tick to re-derive it. staller is the port's mem.Staller
	// extension (nil: a refused load retries every cycle); refused is the
	// request it refused and refusal the watch on the slot that request
	// waits for.
	staller mem.Staller
	stall   issueStall
	refused mem.Request
	refusal mem.Watch

	onFinished func()

	bp Perceptron

	// BranchHist is the global conditional branch history (last 32 outcomes),
	// CritHist the global criticality history (last 32 loads) — the two shift
	// registers CLIP's critical signature hashes (paper §4.2).
	BranchHist uint32
	CritHist   uint32

	fetchCheck FetchChecker
	lastBlock  uint64

	stats Stats

	onLoad   func(*LoadEvent)
	onRetire func(*RetireEvent)

	// ibuf is the batch dispatch reads, ipos how much of it is dispatched.
	// An empty ibuf means nothing is filled since New or a load: gen is at
	// the batch's start, and ipos (restored by a load) is where dispatch
	// resumes once the next refill has filled it. b, carved at NewCores,
	// backs ibuf and marks where gen was when it was filled.
	ibuf []trace.Instr
	ipos int
	b    *batch

	// reqBuf/loadEv/retireEv buffer the values handed to the memory port
	// and event listeners, so the pointers passed through interfaces and
	// stored callbacks never force per-instruction heap allocations; the
	// callees consume them synchronously.
	reqBuf   mem.Request
	loadEv   LoadEvent
	retireEv RetireEvent
}

// New creates a core running gen with an instruction budget: the
// one-member case of NewCores, with the id given. The budget only marks
// Finished(); the core keeps executing (replay) so shared-resource pressure
// stays realistic until every core in the mix is done, as in the paper's
// methodology.
func New(id int, cfg Config, gen trace.Generator, port MemoryPort, budget uint64) (*Core, error) {
	cs, err := NewCores(nil, cfg, []trace.Generator{gen}, []MemoryPort{port}, budget)
	if err != nil {
		return nil, err
	}
	cs[0].id = id
	return &cs[0], nil
}

// NewCores builds one core per generator, core i with id i running gens[i]
// through ports[i], all with one configuration and budget. Their ROB columns
// and branch-predictor weights are carved from one slab per column type
// (mem.Carve), and their instruction batches are one slab, so the cores cost
// a fixed handful of allocations whatever their number. The slabs come from
// a (mem.Make).
func NewCores(a *mem.Arena, cfg Config, gens []trace.Generator, ports []MemoryPort, budget uint64) ([]Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ports) != len(gens) {
		return nil, fmt.Errorf("cpu: %d generators for %d memory ports", len(gens), len(ports))
	}
	n := len(gens)
	size := cfg.ROBSize
	words := (size + 63) / 64
	cs := mem.Make[Core](a, n)
	u64 := mem.Make[uint64](a, n*(6*words+4*size))
	u8 := mem.Make[uint8](a, n*2*size)
	i32 := mem.Make[int32](a, n*2*size)
	weights := mem.Make[int8](a, n*pcptTables*pcptEntries)
	batches := mem.Make[batch](a, n)
	for i := range cs {
		if gens[i] == nil || ports[i] == nil {
			return nil, fmt.Errorf("cpu: nil generator or memory port")
		}
		c := &cs[i]
		c.cfg, c.id, c.gen, c.port = cfg, i, gens[i], ports[i]
		c.robSize, c.pendHead, c.budget, c.lastLoadSlot = size, -1, budget, -1
		c.b = &batches[i]
		c.bp.carve(&weights)
		c.staller, _ = c.port.(mem.Staller)
		c.validW, c.doneW, c.issuedW = mem.Carve(&u64, words), mem.Carve(&u64, words), mem.Carve(&u64, words)
		c.chainW, c.pendW, c.readyW = mem.Carve(&u64, words), mem.Carve(&u64, words), mem.Carve(&u64, words)
		c.ipCol, c.addrCol = mem.Carve(&u64, size), mem.Carve(&u64, size)
		c.stallCol, c.doneAt = mem.Carve(&u64, size), mem.Carve(&u64, size)
		c.opCol, c.servedCol = mem.Carve(&u8, size), mem.Carve(&u8, size)
		c.depCol, c.childCol = mem.Carve(&i32, size), mem.Carve(&i32, size)
		for k := range c.depCol {
			c.depCol[k] = -1
			c.childCol[k] = -1
		}
	}
	return cs, nil
}

// bitOf/setBit/clearBit are the bitmap primitives; all inline.
func bitOf(w []uint64, i int) bool { return w[i>>6]&(1<<uint(i&63)) != 0 }
func setBit(w []uint64, i int)     { w[i>>6] |= 1 << uint(i&63) }
func clearBit(w []uint64, i int)   { w[i>>6] &^= 1 << uint(i&63) }

// Stats returns a pointer to the live counters.
func (c *Core) Stats() *Stats { return &c.stats }

// Finished reports whether the core has retired its instruction budget.
func (c *Core) Finished() bool { return c.retiredTotal >= c.budget }

// FinishCycle returns the cycle at which the budget was reached (0 if not
// yet finished).
func (c *Core) FinishCycle() uint64 { return c.finishCycle }

// RetiredTotal returns lifetime retired instructions (unaffected by
// ResetStats).
func (c *Core) RetiredTotal() uint64 { return c.retiredTotal }

// ResetStats zeroes the measurement counters after cache warmup without
// disturbing execution progress accounting.
func (c *Core) ResetStats() { c.stats = Stats{} }

// ExtendBudget grants the core extra instructions beyond its *current*
// progress (not beyond the old budget: while slower cores finish warmup a
// fast core keeps replaying, and the measurement interval must still cover
// extra instructions from the barrier) and re-arms FinishCycle.
func (c *Core) ExtendBudget(extra uint64) {
	c.budget = c.retiredTotal + extra
	c.finishCycle = 0
}

// SetFetchChecker installs the instruction-fetch model (nil disables it).
func (c *Core) SetFetchChecker(f FetchChecker) { c.fetchCheck = f }

// OnFinished registers a listener fired the moment the instruction budget is
// reached (once per ExtendBudget arming). The simulation loop maintains its
// finished-core counter from this instead of scanning every core per cycle.
func (c *Core) OnFinished(f func()) { c.onFinished = f }

// OnLoadComplete registers the listener for load responses, replacing any
// earlier one; the event names the core, so one listener can serve every
// core. The event pointer is only valid for the duration of the call.
func (c *Core) OnLoadComplete(f func(*LoadEvent)) { c.onLoad = f }

// OnRetire registers the listener for retiring instructions, replacing any
// earlier one; the event names the core. The event pointer is only valid for
// the duration of the call. Retire events are only materialized while a
// listener is registered.
func (c *Core) OnRetire(f func(*RetireEvent)) { c.onRetire = f }

// ROBOccupancy returns the number of valid ROB entries.
func (c *Core) ROBOccupancy() int { return c.count }

// done reports whether the instruction in slot has completed by the core's
// clock: its done bit is set, or it is a non-load whose completion cycle has
// come.
func (c *Core) done(slot int) bool {
	return bitOf(c.doneW, slot) || trace.Op(c.opCol[slot]) != trace.OpLoad && c.doneAt[slot] <= c.cycle
}

// HeadStalled reports whether the ROB head is an incomplete instruction —
// the paper's "ROB stall flag".
func (c *Core) HeadStalled() bool {
	return c.count > 0 && !c.done(c.head)
}

// Tick advances the core one cycle: retire, issue pending loads, then
// fetch/dispatch.
func (c *Core) Tick(cycle uint64) {
	c.cycle = cycle
	c.stats.Cycles++
	c.wake = false

	c.accountStall()
	c.retire()
	c.issueLoads()
	c.dispatch()
}

// NextEvent returns the earliest cycle >= now at which Tick can make
// architectural progress, assuming no external load completion arrives first
// (CompleteLoad sets a wake flag callers must honour via Woken before
// trusting a cached horizon). mem.NoEvent means the core is blocked entirely
// on outstanding memory responses.
//
// The horizon is sound because every per-cycle action of Tick is covered:
// retire is in order, so only the head's completion can enable it — a load's
// arrives through CompleteLoad, a non-load's at its doneAt; a completion
// behind the head enables nothing (loads wait only on loads, and the
// ROB-stall flag samples the head). Dispatch needs the conditions checked
// here, and issueLoads can only act when readyCount > 0 — which makes the
// core runnable unless the issue-stall memo proves the attempt repeats: the
// port refused the load and has freed no slot since (Woken reports the
// slot), or no ready load sits inside the scan window.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.count == 0 || bitOf(c.doneW, c.head) {
		return now // retire and/or dispatch can proceed immediately
	}
	next := mem.NoEvent
	if trace.Op(c.opCol[c.head]) != trace.OpLoad {
		if c.doneAt[c.head] <= now {
			return now
		}
		next = c.doneAt[c.head]
	}
	if c.readyCount > 0 && c.stall != issueRefused && c.stall != issueDry {
		return now // an issuable load goes to the L1 port
	}
	if c.count < c.robSize {
		// Dispatch is open; it resumes as soon as the fetch stall ends. (With
		// a full ROB dispatch is a silent no-op, so no deadline from it.)
		if now >= c.fetchStallUntil {
			return now
		}
		if c.fetchStallUntil < next {
			next = c.fetchStallUntil
		}
	}
	return next
}

// Woken reports whether a cached NextEvent horizon is invalid: a load
// completed since the last Tick, the port freed the slot a refused load
// waits for, or the issue-stall memo was lost to a restore.
func (c *Core) Woken() bool {
	return c.wake || c.stall == issueStale || (c.stall == issueRefused && !c.refusal.Holds())
}

// SkipCycles applies the accounting Tick would have performed over the n
// quiescent cycles [from, from+n): cycle and head-stall counting, the
// fetch-stall cycles dispatch would have charged, and — for a load the port
// keeps refusing — the port's per-retry accounting (mem.Staller.Refused).
// The caller proved via NextEvent and Woken that no architectural progress
// is possible in the window.
func (c *Core) SkipCycles(from, n uint64) {
	if n == 0 {
		return
	}
	if invariant.Enabled {
		invariant.Check(!c.Woken() && c.NextEvent(from) >= from+n,
			"cpu %d: skipping [%d,%d) past next event %d (woken=%v)",
			c.id, from, from+n, c.NextEvent(from), c.Woken())
		invariant.Check(c.stall != issueDry || c.windowDry(),
			"cpu %d: slept on a dry scan window that holds a ready load", c.id)
	}
	if c.stall == issueRefused {
		c.staller.Refused(&c.refused, n)
	}
	c.stats.Cycles += n
	if c.HeadStalled() {
		c.stats.ROBStallCycles += n
		c.stallCol[c.head] += n
	}
	if from < c.fetchStallUntil {
		d := c.fetchStallUntil - from
		if d > n {
			d = n
		}
		c.stats.FetchStallCycles += d
	}
	c.cycle = from + n - 1
}

// scanLimit is how many of the oldest pending loads issueLoads examines per
// cycle.
const scanLimit = 16

func (c *Core) accountStall() {
	if c.HeadStalled() {
		c.stats.ROBStallCycles++
		c.stallCol[c.head]++
	}
}

// retire commits up to retireWidth instructions from the run of completed
// instructions at the ROB head.
func (c *Core) retire() {
	if n := c.doneRun(c.head, min(retireWidth, c.count)); n > 0 {
		c.retireRun(n)
	}
}

// doneRun returns the length of the run of completed instructions starting
// at ring position pos, capped at limit.
func (c *Core) doneRun(pos, limit int) int {
	n := 0
	for n < limit && c.done(pos) {
		n++
		if pos++; pos == c.robSize {
			pos = 0
		}
	}
	return n
}

// retireRun commits the n done instructions at the ROB head in program order:
// stall accounting, one RetireEvent per instruction when anyone listens, and
// the bitmap updates run per slot; the retire counters and the budget check
// are batched over the run. A retired slot's done bit stays set until the
// slot is dispatched again, and images hold it so.
func (c *Core) retireRun(n int) {
	listen := c.onRetire != nil
	slot := c.head
	for k := 0; k < n; k++ {
		c.stats.StallsByLevel[c.servedCol[slot]] += c.stallCol[slot]
		if listen {
			c.retireEv = RetireEvent{
				Core: c.id, IP: c.ipCol[slot], Op: trace.Op(c.opCol[slot]), Addr: mem.Addr(c.addrCol[slot]),
				IsLoad: trace.Op(c.opCol[slot]) == trace.OpLoad, ServedBy: mem.Level(c.servedCol[slot]),
				StallCycles: c.stallCol[slot], DependChain: bitOf(c.chainW, slot),
				Cycle: c.cycle,
			}
			c.onRetire(&c.retireEv)
		}
		if c.lastLoadSlot == slot {
			c.lastLoadSlot = -1
		}
		c.validW[slot>>6] &^= 1 << uint(slot&63)
		c.doneW[slot>>6] |= 1 << uint(slot&63)
		slot++
		if slot == c.robSize {
			slot = 0
		}
	}
	c.head = slot
	c.count -= n
	c.stats.Retired += uint64(n)
	c.retiredTotal += uint64(n)
	if c.finishCycle == 0 && c.retiredTotal >= c.budget {
		c.finishCycle = c.cycle
		if c.onFinished != nil {
			c.onFinished()
		}
	}
}

// issueLoads walks the pending-load bitmap from the oldest entry (the ring
// scan from pendHead visits loads in age order) and issues ready loads to
// the L1D. Blocked loads (readyW bit clear) are skipped; CompleteLoad flips
// their bit when the producer returns, so no per-cycle dependence rescan is
// needed.
func (c *Core) issueLoads() {
	c.stall = issueOpen
	if c.pendLen == 0 {
		return
	}
	attempted := false
	ports := loadPorts
	// Bound per-cycle scheduling effort: examine the oldest few ready loads
	// (an age-ordered LQ scheduler), and stop on L1 backpressure — when the
	// L1 refuses one request it refuses them all this cycle.
	examined := 0
	pos := c.pendHead
	for left := c.pendLen; left > 0; left-- {
		pos = c.nextPending(pos)
		if ports == 0 || examined >= scanLimit {
			break
		}
		examined++
		if invariant.Enabled {
			invariant.Check(bitOf(c.validW, pos) && !bitOf(c.doneW, pos) && !bitOf(c.issuedW, pos),
				"cpu %d: stale pending-load slot %d", c.id, pos)
			dep := int(c.depCol[pos])
			blocked := !bitOf(c.readyW, pos)
			invariant.Check(!blocked || (dep >= 0 && bitOf(c.validW, dep) && !bitOf(c.doneW, dep)),
				"cpu %d: slot %d blocked without an in-flight producer (dep=%d)", c.id, pos, dep)
		}
		if !bitOf(c.readyW, pos) {
			// Producer in flight; CompleteLoad wakes us.
			pos++
			if pos == c.robSize {
				pos = 0
			}
			continue
		}
		attempted = true
		c.reqBuf = mem.Request{
			Addr: mem.Addr(c.addrCol[pos]).Line(), IP: c.ipCol[pos], Core: int16(c.id),
			Type: mem.Load, IssueCycle: c.cycle, ROBIndex: int16(pos),
		}
		if !c.port.Issue(&c.reqBuf) {
			// L1 saturated: retry next cycle, or sleep until it frees a slot.
			if c.refusal = mem.WatchRefusal(c.staller, &c.reqBuf); c.refusal.Holds() {
				c.stall, c.refused = issueRefused, c.reqBuf
			}
			break
		}
		setBit(c.issuedW, pos)
		clearBit(c.pendW, pos)
		clearBit(c.readyW, pos)
		c.pendLen--
		c.readyCount--
		c.outstanding++
		c.stats.L1DAccesses++
		ports--
		pos++
		if pos == c.robSize {
			pos = 0
		}
	}
	if c.pendLen == 0 {
		c.pendHead = -1
	} else {
		c.pendHead = c.nextPending(c.pendHead)
	}
	if !attempted && c.readyCount > 0 {
		c.stall = issueDry
	}
}

// recheckRefusal re-derives the issueRefused memo after the core went to the
// port again in the same Tick. A dispatched store translates, and that can
// evict the DTLB entry the refusal rested on; unless the port still vouches
// for the refusal, the load retries next cycle.
func (c *Core) recheckRefusal() {
	if c.refusal = mem.WatchRefusal(c.staller, &c.refused); !c.refusal.Holds() {
		c.stall = issueOpen
	}
}

// windowDry re-derives the issueDry verdict (clipdebug): the scanLimit
// oldest pending loads all wait on an in-flight producer.
func (c *Core) windowDry() bool {
	pos := c.pendHead
	for left, examined := c.pendLen, 0; left > 0 && examined < scanLimit; left, examined = left-1, examined+1 {
		pos = c.nextPending(pos)
		if bitOf(c.readyW, pos) {
			return false
		}
		pos++
		if pos == c.robSize {
			pos = 0
		}
	}
	return true
}

// nextPending returns the first pending slot at or (ring-)after pos. The
// caller guarantees pendLen > 0.
func (c *Core) nextPending(pos int) int {
	wi := pos >> 6
	if w := c.pendW[wi] >> uint(pos&63); w != 0 {
		return pos + bits.TrailingZeros64(w)
	}
	nw := len(c.pendW)
	for i := 1; ; i++ {
		j := wi + i
		if j >= nw {
			j -= nw
		}
		if w := c.pendW[j]; w != 0 {
			return j<<6 + bits.TrailingZeros64(w)
		}
		if invariant.Enabled {
			invariant.Check(i <= nw, "cpu %d: pendW scan found no set bit (pendLen=%d)", c.id, c.pendLen)
		}
	}
}

// dispatch fills ROB slots from the instruction batch in per-kind spans:
// the run of non-branch instructions up to the next branch dispatches as one
// batch (dispatchSpan), branches are handled individually because a
// mispredict redirects fetch.
func (c *Core) dispatch() {
	if c.cycle < c.fetchStallUntil {
		c.stats.FetchStallCycles++
		return
	}
	width := c.cfg.IssueWidth
	for width > 0 && c.count < c.robSize {
		if c.ipos >= len(c.ibuf) {
			c.refillIbuf()
		}
		k := len(c.ibuf) - c.ipos
		if k > width {
			k = width
		}
		if free := c.robSize - c.count; k > free {
			k = free
		}
		if k <= 0 {
			break // defensive: generators are endless, refill never under-fills
		}
		buf := c.ibuf[c.ipos : c.ipos+k]
		span := 0
		for span < k && buf[span].Op != trace.OpBranch {
			span++
		}
		if span > 0 {
			c.dispatchSpan(buf[:span])
			width -= span
		}
		if span < k {
			width--
			if c.dispatchBranch(&buf[span]) {
				break // stop dispatching this cycle: fetch redirect
			}
		}
	}
}

// dispatchSpan enters a run of non-branch instructions into the ROB.
func (c *Core) dispatchSpan(buf []trace.Instr) {
	slot := c.tail
	for i := range buf {
		ins := &buf[i]
		if c.fetchCheck != nil {
			if blk := ins.IP >> 6; blk != c.lastBlock {
				c.lastBlock = blk
				if stall := c.fetchCheck(c.id, ins.IP); stall > 0 {
					c.stats.FetchStallCycles += stall
					c.fetchStallUntil = c.cycle + stall
					// The instruction itself dispatches now (it is at the
					// head of the fetched block); subsequent fetch waits.
				}
			}
		}
		c.initSlot(slot, ins)
		switch ins.Op {
		case trace.OpLoad:
			c.dispatchLoad(slot, ins)
		case trace.OpStore:
			c.stats.Stores++
			// Stores complete via the store buffer; still send the write to
			// the cache for traffic/allocation effects.
			setBit(c.doneW, slot)
			c.servedCol[slot] = uint8(mem.LevelL1)
			c.stats.L1DAccesses++
			c.reqBuf = mem.Request{
				Addr: ins.Addr.Line(), IP: ins.IP, Core: int16(c.id),
				Type: mem.Store, IssueCycle: c.cycle, ROBIndex: -1,
			}
			c.port.Issue(&c.reqBuf)
			if c.stall == issueRefused {
				c.recheckRefusal()
			}
		default: // ALU
			c.doneAt[slot] = c.cycle + max(uint64(ins.ExecLat), 1)
		}
		slot++
		if slot == c.robSize {
			slot = 0
		}
	}
	c.tail = slot
	c.count += len(buf)
	c.ipos += len(buf)
}

// dispatchBranch enters one branch, which completes the next cycle, and
// reports whether a mispredict redirected fetch (ending this cycle's
// dispatch).
func (c *Core) dispatchBranch(ins *trace.Instr) bool {
	if c.fetchCheck != nil {
		if blk := ins.IP >> 6; blk != c.lastBlock {
			c.lastBlock = blk
			if stall := c.fetchCheck(c.id, ins.IP); stall > 0 {
				c.stats.FetchStallCycles += stall
				c.fetchStallUntil = c.cycle + stall
			}
		}
	}
	slot := c.tail
	c.initSlot(slot, ins)
	c.tail++
	if c.tail == c.robSize {
		c.tail = 0
	}
	c.count++
	c.ipos++
	c.stats.Branches++
	pred := c.bp.Predict(ins.IP)
	c.bp.Update(ins.Taken, pred)
	c.BranchHist = c.BranchHist<<1 | b2u(ins.Taken)
	c.doneAt[slot] = c.cycle + 1
	if pred != ins.Taken {
		c.stats.Mispredicts++
		c.fetchStallUntil = c.cycle + mispredictPenalty
		return true
	}
	return false
}

// initSlot resets slot's bitmap bits and fills the payload columns common to
// every instruction kind.
func (c *Core) initSlot(slot int, ins *trace.Instr) {
	setBit(c.validW, slot)
	clearBit(c.doneW, slot)
	clearBit(c.issuedW, slot)
	clearBit(c.chainW, slot)
	c.ipCol[slot] = ins.IP
	c.addrCol[slot] = uint64(ins.Addr)
	c.opCol[slot] = uint8(ins.Op)
	c.stallCol[slot] = 0
	c.servedCol[slot] = 0
	c.depCol[slot] = -1
	c.childCol[slot] = -1
}

// dispatchLoad enters one load: dependence linking, load-queue admission and
// ready-set classification.
func (c *Core) dispatchLoad(slot int, ins *trace.Instr) {
	c.stats.Loads++
	dep := -1
	if ins.DependsOnPrevLoad && c.lastLoadSlot >= 0 && bitOf(c.validW, c.lastLoadSlot) {
		dep = c.lastLoadSlot
		setBit(c.chainW, slot)
	}
	c.lastLoadSlot = slot
	if c.pendLen < c.cfg.LQSize {
		setBit(c.pendW, slot)
		if c.pendLen == 0 {
			c.pendHead = slot
		}
		c.pendLen++
		if dep >= 0 && !bitOf(c.doneW, dep) {
			// Producer still in flight: blocked until its CompleteLoad.
			c.depCol[slot] = int32(dep)
			c.childCol[dep] = int32(slot)
		} else {
			setBit(c.readyW, slot)
			c.readyCount++
		}
	} else {
		// LQ full: treat as an immediate L1 hit to keep draining; rare.
		setBit(c.doneW, slot)
		c.servedCol[slot] = uint8(mem.LevelL1)
	}
}

// CompleteLoad delivers a memory response for the load in ROB slot
// resp.Req.ROBIndex. It updates the criticality history and fires LoadEvent
// listeners — this is the paper's training moment: "on a load response back
// to the processor, check the ROB stall flag and the miss-level flag".
func (c *Core) CompleteLoad(resp *mem.Response) {
	c.wake = true
	slot := int(resp.Req.ROBIndex)
	if slot < 0 || slot >= c.robSize {
		return
	}
	if !bitOf(c.validW, slot) || trace.Op(c.opCol[slot]) != trace.OpLoad || bitOf(c.doneW, slot) {
		return
	}
	// Sample the ROB-stall flag before completing the load: the paper checks
	// the flag at the moment the response arrives, and the stalled head is
	// most often this very load.
	stalled := c.HeadStalled()
	atHead := c.count > 0 && c.head == slot
	setBit(c.doneW, slot)
	c.servedCol[slot] = uint8(resp.ServedBy)
	if c.outstanding > 0 {
		c.outstanding--
	}
	if child := c.childCol[slot]; child >= 0 {
		// The returning producer unblocks its single dependent load.
		c.childCol[slot] = -1
		cs := int(child)
		if invariant.Enabled {
			invariant.Check(bitOf(c.pendW, cs) && !bitOf(c.issuedW, cs) && int(c.depCol[cs]) == slot,
				"cpu %d: slot %d woke a non-blocked dependent %d", c.id, slot, cs)
		}
		setBit(c.readyW, cs)
		c.readyCount++
	}

	lat := resp.Latency()
	lv := int(resp.ServedBy)
	c.stats.LoadLatency[lv].Sum += lat
	c.stats.LoadLatency[lv].Count++

	critical := stalled && resp.ServedBy >= mem.LevelL2
	if critical {
		c.stats.LoadsStalledHead++
		c.stats.CriticalResponses++
	}
	c.CritHist = c.CritHist<<1 | b2u(critical)

	if c.onLoad != nil {
		c.loadEv = LoadEvent{
			Core: c.id, IP: c.ipCol[slot], Addr: mem.Addr(c.addrCol[slot]), ServedBy: resp.ServedBy,
			Latency: lat, StalledHead: stalled, AtHead: atHead,
			HeadStallCycles: c.stallCol[slot], ROBOccupancy: c.count,
			MLPAtComplete: c.outstanding, WasPrefetchHit: resp.WasPrefetch,
			LatePF: resp.LatePF, Cycle: c.cycle,
			BranchHist: c.BranchHist, CritHist: c.CritHist,
		}
		c.onLoad(&c.loadEv)
	}
}

// ibufBatch is how many instructions one refill generates: enough to
// amortise the call, few enough (12 KB) to stay in the L1 cache.
const ibufBatch = 512

// batch is a core's instruction buffer and the generator position it was
// filled from: the one stream position an image needs (see State).
type batch struct {
	mark trace.Cursor
	buf  [ibufBatch]trace.Instr
}

// refillIbuf generates the next batch in place into the core's own buffer.
// A spent batch restarts dispatch at its first instruction; a batch filled
// after New or a load resumes at the restored ipos. Batch boundaries cannot
// affect timing: dispatch refills mid-cycle whenever the buffer drains, and
// the generators are pure sequences.
func (c *Core) refillIbuf() {
	if len(c.ibuf) > 0 {
		c.ipos = 0
	}
	trace.Tell(c.gen, &c.b.mark)
	c.ibuf = c.b.buf[:]
	trace.Fill(c.gen, c.ibuf)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// DebugHead reports the head ROB entry (diagnostics).
func (c *Core) DebugHead() string {
	if c.count == 0 {
		return "empty"
	}
	h := c.head
	return fmt.Sprintf("slot=%d op=%v ip=%#x addr=%#x done=%v issued=%v dep=%d pendingLoads=%d outstanding=%d",
		h, trace.Op(c.opCol[h]), c.ipCol[h], c.addrCol[h], c.done(h), bitOf(c.issuedW, h),
		c.depCol[h], c.pendLen, c.outstanding)
}
