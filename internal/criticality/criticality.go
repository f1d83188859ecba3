// Package criticality implements the six prior load-criticality predictors
// the paper compares against (Table 1, Figures 4 and 5): CATCH, FP, FVP,
// CBP, ROBO and CRISP. Each keys on the load IP alone — the shared weakness
// the paper identifies: "different instances of the same load IP do not lead
// to a stall at the head of the ROB", so IP-granular predictors either
// over-predict (CATCH, FVP — 100% coverage, poor accuracy) or under-cover
// (CRISP — only LLC misses).
//
// Ground truth follows the paper's definition: a load is critical when its
// response arrives from L2, LLC or DRAM while the ROB head is stalled.
package criticality

import (
	"fmt"

	"clip/internal/cpu"
	"clip/internal/mem"
	"clip/internal/stats"
	"clip/internal/table"
)

// Predictor is the common interface for load criticality predictors.
type Predictor interface {
	Name() string
	// OnLoadComplete trains on a completed load.
	OnLoadComplete(ev *cpu.LoadEvent)
	// OnRetire trains on the retire stream (CATCH/FVP walk it).
	OnRetire(ev *cpu.RetireEvent)
	// Critical predicts whether the next dynamic instance of ip accessing
	// addr will be critical. Prior predictors ignore addr — that is their
	// documented limitation, not an implementation shortcut.
	Critical(ip uint64, addr mem.Addr) bool
}

// IsCriticalEvent applies the paper's ground-truth definition to a load.
func IsCriticalEvent(ev *cpu.LoadEvent) bool {
	return ev.StalledHead && ev.ServedBy >= mem.LevelL2
}

// New constructs a predictor by name: catch, fp, fvp, cbp, robo, crisp. It
// is the one-member case of NewArray.
func New(name string, robSize int) (Predictor, error) {
	ps, err := NewArray(nil, name, robSize, 1)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// NewArray constructs n predictors of the named kind, one per core. The
// predictors are one array and their tables are carved per kind
// (table.NewFixeds, table.NewMaps), so a kind costs a fixed handful of
// allocations whatever n is. The slabs come from a (mem.Make).
func NewArray(a *mem.Arena, name string, robSize, n int) ([]Predictor, error) {
	ps := mem.Make[Predictor](a, n)
	switch name {
	case "catch":
		fill(ps, newCATCHs(a, n))
	case "fp":
		maps := table.NewMaps[uint64](a, n, 0)
		fill(ps, mapped(a, maps, func(m *table.Map[uint64]) fpPred { return fpPred{stall: m} }))
	case "fvp":
		maps := table.NewMaps[int](a, n, 0)
		fill(ps, mapped(a, maps, func(m *table.Map[int]) fvpPred { return fvpPred{conf: m} }))
	case "cbp":
		maps := table.NewMaps[cbpEntry](a, n, 0)
		fill(ps, mapped(a, maps, func(m *table.Map[cbpEntry]) cbpPred { return cbpPred{t: m} }))
	case "robo":
		if robSize <= 0 {
			robSize = 512
		}
		maps := table.NewMaps[roboEntry](a, n, 0)
		fill(ps, mapped(a, maps, func(m *table.Map[roboEntry]) roboPred { return roboPred{robSize: robSize, t: m} }))
	case "crisp":
		maps := table.NewMaps[crispEntry](a, n, 0)
		fill(ps, mapped(a, maps, func(m *table.Map[crispEntry]) crispPred { return crispPred{t: m} }))
	default:
		return nil, fmt.Errorf("criticality: unknown predictor %q", name)
	}
	return ps, nil
}

// mapped builds one predictor over each of maps, in a slab from a.
func mapped[V, T any](a *mem.Arena, maps []table.Map[V], pred func(*table.Map[V]) T) []T {
	ts := mem.Make[T](a, len(maps))
	for i := range ts {
		ts[i] = pred(&maps[i])
	}
	return ts
}

// fill points ps[i] at preds[i].
func fill[T any, P interface {
	*T
	Predictor
}](ps []Predictor, preds []T) {
	for i := range preds {
		ps[i] = P(&preds[i])
	}
}

// Names lists the prior predictors in the paper's Figure 4 order.
func Names() []string { return []string{"crisp", "catch", "fp", "fvp", "cbp", "robo"} }

// Score accumulates a confusion matrix over dynamic critical-load events.
type Score struct {
	TruePos, FalsePos, FalseNeg, TrueNeg uint64
}

// Update records one (predicted, actual) pair.
func (s *Score) Update(predicted, actual bool) {
	switch {
	case predicted && actual:
		s.TruePos++
	case predicted && !actual:
		s.FalsePos++
	case !predicted && actual:
		s.FalseNeg++
	default:
		s.TrueNeg++
	}
}

// Accuracy is the paper's metric: correct critical predictions over all
// critical predictions (precision).
func (s *Score) Accuracy() float64 {
	return stats.Ratio(s.TruePos, s.TruePos+s.FalsePos)
}

// Coverage is the fraction of actually-critical loads that were predicted
// (recall).
func (s *Score) Coverage() float64 {
	return stats.Ratio(s.TruePos, s.TruePos+s.FalseNeg)
}

// Events returns the number of scored events.
func (s *Score) Events() uint64 {
	return s.TruePos + s.FalsePos + s.FalseNeg + s.TrueNeg
}

// ---- CATCH (Nori et al., ISCA'18) ----

// catchPred enumerates the data-dependency graph incrementally at retire: the
// costliest incoming edge marks instructions on the critical path. Loads in
// the vicinity of branches and producers of long chains get tagged even when
// they never stall — and once confident, an IP stays critical (Table 1:
// "blind to MLP", over-predicts).
type catchPred struct {
	conf *table.Fixed[int] // bounded: a full table refuses new IPs
	// recent is the DDG window: the IPs of the last catchWindow retired
	// loads, a ring whose oldest entry sits at recentHead. Walks go oldest to
	// newest — bump order is observable through the FIFO conf table.
	recent     [catchWindow]uint64
	recentHead int
	recentLen  int
}

const (
	catchTableSize = 4096
	catchWindow    = 8 // power of two: ring positions are masked
)

// recentAt returns the i-th oldest IP in the DDG window.
func (c *catchPred) recentAt(i int) uint64 {
	return c.recent[(c.recentHead+i)&(catchWindow-1)]
}

func newCATCHs(a *mem.Arena, n int) []catchPred {
	cs := mem.Make[catchPred](a, n)
	confs := table.NewFixeds[int](a, n, catchTableSize, table.FIFO)
	for i := range cs {
		cs[i].conf = &confs[i]
	}
	return cs
}

func (c *catchPred) Name() string { return "catch" }

func (c *catchPred) OnLoadComplete(ev *cpu.LoadEvent) {
	// Any stall makes the whole neighbourhood look costly in the DDG.
	if ev.StalledHead && ev.ServedBy >= mem.LevelL2 {
		c.bump(ev.IP, 2)
		for i := 0; i < c.recentLen; i++ {
			c.bump(c.recentAt(i), 1) // loads overlapped with the stall: flagged too (MLP-blind)
		}
	}
}

func (c *catchPred) OnRetire(ev *cpu.RetireEvent) {
	if !ev.IsLoad {
		return
	}
	if c.recentLen < catchWindow {
		c.recent[(c.recentHead+c.recentLen)&(catchWindow-1)] = ev.IP
		c.recentLen++
	} else {
		// Full: the new IP overwrites the oldest, which becomes the newest.
		c.recent[c.recentHead] = ev.IP
		c.recentHead = (c.recentHead + 1) & (catchWindow - 1)
	}
	// Dependency-chain roots look critical in the graph.
	if ev.DependChain {
		c.bump(ev.IP, 1)
	}
	// Off-chip misses are costly edges regardless of stalls.
	if ev.ServedBy >= mem.LevelL2 {
		c.bump(ev.IP, 1)
	}
}

func (c *catchPred) bump(ip uint64, n int) {
	if p := c.conf.Get(ip); p != nil {
		*p += n
	} else if c.conf.Len() < c.conf.Cap() {
		c.conf.Insert(ip, n)
	}
}

func (c *catchPred) Critical(ip uint64, _ mem.Addr) bool {
	p := c.conf.Peek(ip)
	return p != nil && *p >= 2
}

// ---- FP / Focused Prefetching (Manikantan & Govindarajan, ICS'08) ----

// fpPred tracks LIMCOS: the few loads incurring the majority of commit
// stalls. It accumulates per-IP commit stall cycles and flags the heavy
// hitters. It never predicts IPs that stall only lightly, and effectively
// marks most L3-missing IPs critical (Table 1).
type fpPred struct {
	stall  *table.Map[uint64] // unbounded by design: every retired load IP
	total  uint64
	events uint64
}

func (f *fpPred) Name() string { return "fp" }

func (f *fpPred) OnLoadComplete(*cpu.LoadEvent) {}

func (f *fpPred) OnRetire(ev *cpu.RetireEvent) {
	if !ev.IsLoad {
		return
	}
	*f.stall.At(ev.IP) += ev.StallCycles
	f.total += ev.StallCycles
	f.events++
	if f.events%65536 == 0 { // epoch decay: independent per-key halving
		f.stall.Range(func(_ uint64, s *uint64) bool {
			*s /= 2
			return true
		})
		f.total /= 2
	}
}

func (f *fpPred) Critical(ip uint64, _ mem.Addr) bool {
	if f.total == 0 {
		return false
	}
	p := f.stall.Get(ip)
	if p == nil {
		return false
	}
	// An IP owning >=1% of total commit stalls is a LIMCOS member.
	return *p*100 >= f.total
}

// ---- FVP (Bandishte et al., ISCA'20) ----

// fvpPred marks in-flight instructions inside the retire-width window and
// identifies dependency-chain roots; it "ends up identifying all those loads
// that are likely to delay the execution of other loads" — tagging
// excessively (Table 1).
type fvpPred struct {
	conf *table.Map[int] // unbounded by design
}

func (f *fvpPred) Name() string { return "fvp" }

func (f *fvpPred) OnLoadComplete(ev *cpu.LoadEvent) {
	// In-flight at the retire window: almost every load that ever waited.
	if ev.StalledHead || ev.AtHead || ev.Latency > 8 {
		*f.conf.At(ev.IP)++
	}
}

func (f *fvpPred) OnRetire(ev *cpu.RetireEvent) {
	if ev.IsLoad && ev.DependChain {
		*f.conf.At(ev.IP)++ // producer of a value chain
	}
}

func (f *fvpPred) Critical(ip uint64, _ mem.Addr) bool {
	p := f.conf.Get(ip)
	return p != nil && *p >= 1
}

// ---- CBP (Ghose, Lee & Martínez, ISCA'13) ----

// cbpPred predicts commit-blocking loads from total/maximum stall time.
// Like ROBO it is static: once flagged, an IP stays critical through all its
// recurrences (Table 1).
type cbpPred struct {
	t *table.Map[cbpEntry] // unbounded by design; one entry per IP
}

type cbpEntry struct {
	maxSeen uint64
	flagged bool
}

func (c *cbpPred) Name() string { return "cbp" }

func (c *cbpPred) OnLoadComplete(ev *cpu.LoadEvent) {
	e := c.t.At(ev.IP)
	if ev.HeadStallCycles > e.maxSeen {
		e.maxSeen = ev.HeadStallCycles
	}
	// Total-or-max stall threshold; modest on purpose (the original targets
	// memory scheduling, not filtering).
	if ev.HeadStallCycles >= 4 || e.maxSeen >= 16 {
		e.flagged = true
	}
}

func (c *cbpPred) OnRetire(*cpu.RetireEvent) {}

func (c *cbpPred) Critical(ip uint64, _ mem.Addr) bool {
	e := c.t.Get(ip)
	return e != nil && e.flagged
}

// ---- ROBO (Kalani & Panda, CAL'21) ----

// roboPred flags an IP when a retirement stall coincides with high ROB
// occupancy. Static: "once an IP is flagged critical, throughout the
// execution, the IP is considered critical" (Table 1).
type roboPred struct {
	robSize int
	t       *table.Map[roboEntry] // unbounded by design; one entry per IP
}

type roboEntry struct {
	stalls  int
	flagged bool
}

func (r *roboPred) Name() string { return "robo" }

func (r *roboPred) OnLoadComplete(ev *cpu.LoadEvent) {
	if ev.StalledHead && ev.ROBOccupancy*4 >= r.robSize*3 {
		e := r.t.At(ev.IP)
		e.stalls++
		if e.stalls >= 2 {
			e.flagged = true
		}
	}
}

func (r *roboPred) OnRetire(*cpu.RetireEvent) {}

func (r *roboPred) Critical(ip uint64, _ mem.Addr) bool {
	e := r.t.Get(ip)
	return e != nil && e.flagged
}

// ---- CRISP (Litz, Ayers & Ranganathan, ASPLOS'22) ----

// crispPred marks loads with frequent LLC misses and low memory-level
// parallelism as critical slices. It ignores L1/L2-supplied loads entirely —
// exactly the gap the paper calls out (60% of ROB stalls come from L2/LLC
// hits under constrained bandwidth).
type crispPred struct {
	t *table.Map[crispEntry] // unbounded by design; one entry per IP
}

type crispEntry struct {
	llcMiss uint32
	samples uint32
	mlpSum  uint64
}

func (c *crispPred) Name() string { return "crisp" }

func (c *crispPred) OnLoadComplete(ev *cpu.LoadEvent) {
	e := c.t.At(ev.IP)
	e.samples++
	e.mlpSum += uint64(ev.MLPAtComplete)
	if ev.ServedBy == mem.LevelDRAM {
		e.llcMiss++
	}
}

func (c *crispPred) OnRetire(*cpu.RetireEvent) {}

func (c *crispPred) Critical(ip uint64, _ mem.Addr) bool {
	e := c.t.Get(ip)
	if e == nil || e.samples < 8 {
		return false
	}
	missRate := float64(e.llcMiss) / float64(e.samples)
	avgMLP := float64(e.mlpSum) / float64(e.samples)
	// Pre-defined thresholds, as the paper notes CRISP uses.
	return missRate >= 0.10 && avgMLP <= 4
}
