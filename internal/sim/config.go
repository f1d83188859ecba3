// Package sim assembles the full many-core system of the paper's Table 3 —
// out-of-order cores with private L1D and L2 caches, a mesh NoC connecting
// sliced LLC banks, and a multi-channel DDR4 memory system — and runs
// workload mixes on it. Every evaluated mechanism plugs in here: the four
// prefetchers, CLIP, the six prior criticality predictors, the four
// throttlers, Hermes and DSPatch.
package sim

import (
	"fmt"
	"math/bits"

	"clip/internal/core"
	"clip/internal/cpu"
	"clip/internal/dram"
	"clip/internal/mem"
	"clip/internal/trace"
)

// CacheGeom sizes one cache level.
type CacheGeom struct {
	Sets, Ways int
	Latency    uint64
	MSHRs      int
	Policy     string
	Ports      int
	InQ        int
}

// Lines returns the capacity in cache lines.
func (g CacheGeom) Lines() uint64 { return uint64(g.Sets * g.Ways) }

// Config describes one simulation run.
type Config struct {
	// Workload lists the benchmark name for each core (len == Cores).
	Workload []string

	// InstrPerCore is the measured instruction budget per core.
	InstrPerCore uint64
	// WarmupInstr warms caches/predictors before measurement begins.
	WarmupInstr uint64
	// MaxCycles bounds the run (safety net; 0 = derived).
	MaxCycles uint64

	CPU cpu.Config

	// ScaleDivisor divides the paper's cache capacities (and with them the
	// workload footprints chosen by the trace registry) so scaled runs stay
	// memory-intensive. 1 reproduces Table 3 exactly; the harness default
	// is 8.
	ScaleDivisor int

	L1D CacheGeom
	L2  CacheGeom
	LLC CacheGeom // per-core slice

	// Channels is the DRAM channel count; TransferCycles the per-line data
	// bus occupancy (10 = DDR4-3200's 25.6 GB/s at 4 GHz). Experiments keep
	// the paper's cores-per-channel ratio by scaling these together.
	Channels       int
	TransferCycles int

	// Prefetcher names the underlying prefetcher ("berti", "ipcp", "bingo",
	// "spppf", "stride", "stream", "none").
	Prefetcher string

	// CLIP, when non-nil, gates prefetches per the paper's mechanism. Its
	// exploration window is replaced by the power of two just above the
	// (scaled) L1D capacity, as §4.2 prescribes (clipConfig).
	CLIP *core.Config

	// CritPredictor, when set, filters prefetches with a prior criticality
	// predictor (Figure 5): "catch", "fp", "fvp", "cbp", "robo", "crisp".
	CritPredictor string

	// ScorePredictors attaches all prior predictors in observation mode and
	// reports their accuracy/coverage (Figure 4) without filtering.
	ScorePredictors bool

	// Throttler names an epoch throttler ("fdp", "hpac", "spac", "nst") of
	// the prefetcher, which must be a throttleable engine, not DSPatch.
	Throttler string

	// Hermes enables the off-chip load predictor bypass.
	Hermes bool
	// DSPatch wraps the prefetcher with DSPatch's dual-pattern modulation.
	DSPatch bool

	// NoCCriticalPriority / DRAMCriticalPriority enable the criticality-
	// conscious interconnect and memory scheduler (on by default with CLIP).
	NoCCriticalPriority  bool
	DRAMCriticalPriority bool

	// DynamicCLIP enables the paper's §5.3 future-work extension: CLIP's
	// filtering engages only while DRAM utilization indicates constrained
	// bandwidth (training continues either way). Requires CLIP != nil.
	DynamicCLIP bool

	// DisableSkip forces the strict per-cycle simulation loop: every
	// component ticks every cycle and the event-horizon fast path never
	// jumps. Results are byte-identical either way (enforced by the skip-
	// equivalence tests); the escape hatch exists for debugging and for
	// measuring the skip machinery itself.
	DisableSkip bool

	Seed uint64
}

// DefaultConfig builds the paper's per-core configuration scaled by div
// (div=1 is Table 3 exactly), with the given core and channel counts.
func DefaultConfig(cores, channels, div int) Config {
	if div < 1 {
		div = 1
	}
	work := make([]string, cores)
	for i := range work {
		work[i] = "619.lbm_s-2676B"
	}
	return Config{
		Workload:     work,
		InstrPerCore: 20000,
		WarmupInstr:  5000,
		CPU:          cpu.DefaultConfig(),
		ScaleDivisor: div,
		// Table 3: L1D 48KB 12-way 5cy; L2 512KB 8-way 10cy; LLC 2MB/core
		// 16-way 20cy. Sets scale with the divisor; the L1D scales half as
		// fast (and keeps extra MSHRs) because miss *rates* do not shrink
		// with capacity scaling and a 96-line L1 would be all-MSHR-stall.
		L1D: CacheGeom{Sets: floorPow2(64 / max(1, div/2)), Ways: 12, Latency: 5, MSHRs: 24,
			Policy: "lru", Ports: 2, InQ: 16},
		L2: CacheGeom{Sets: floorPow2(1024 / div), Ways: 8, Latency: 10, MSHRs: 32,
			Policy: "srrip", Ports: 1, InQ: 16},
		LLC: CacheGeom{Sets: floorPow2(2048 / div), Ways: 16, Latency: 20, MSHRs: 64,
			Policy: "mockingjay", Ports: 1, InQ: 32},
		Channels:             channels,
		TransferCycles:       10,
		Prefetcher:           "none",
		NoCCriticalPriority:  true,
		DRAMCriticalPriority: true,
		Seed:                 1,
	}
}

// floorPow2 returns the largest power of two <= v, and 1 for v < 1: cache
// set counts must be powers of two.
func floorPow2(v int) int {
	if v < 1 {
		return 1
	}
	return 1 << (bits.Len(uint(v)) - 1)
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.Workload) == 0 {
		return fmt.Errorf("sim: empty workload")
	}
	if len(c.Workload) > mem.MaxID {
		return fmt.Errorf("sim: %d cores, at most %d", len(c.Workload), mem.MaxID)
	}
	if c.InstrPerCore == 0 {
		return fmt.Errorf("sim: zero instruction budget")
	}
	if c.Channels <= 0 {
		return fmt.Errorf("sim: no DRAM channels")
	}
	if c.DynamicCLIP && c.CLIP == nil {
		return fmt.Errorf("sim: DynamicCLIP without CLIP")
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	return nil
}

// Cores returns the core count.
func (c *Config) Cores() int { return len(c.Workload) }

// TraceScale returns the footprint scale for the trace registry: footprints
// follow the scaled LLC so the benchmarks keep their MPKI class.
func (c *Config) TraceScale() trace.Scale {
	return trace.Scale{LLCLinesPerCore: c.LLC.Lines()}
}

// dramConfig builds the DRAM configuration.
func (c *Config) dramConfig() dram.Config {
	d := dram.DefaultConfig(c.Channels)
	if c.TransferCycles > 0 {
		d.Transfer = c.TransferCycles
	}
	d.CriticalPriority = c.DRAMCriticalPriority
	return d
}

// clipConfig resolves the CLIP configuration: the exploration window is the
// power of two just above the L1D's line count.
func (c *Config) clipConfig() core.Config {
	cfg := *c.CLIP
	lines := c.L1D.Lines()
	w := uint64(1)
	for w <= lines {
		w *= 2
	}
	// Scaled-down L1Ds would otherwise produce windows so short that per-IP
	// hit rates and APC samples are pure noise (§4.2 warns that "smaller
	// exploration windows make the training noisy").
	cfg.ExplorationWindow = max(w, 512)
	return cfg
}

// prefetchAttachL2 reports whether the named prefetcher trains at L2 (Bingo
// and SPP-PPF in the paper) rather than L1D.
func prefetchAttachL2(name string) bool {
	return name == "bingo" || name == "spppf"
}

// effLevel is the criticality level for CLIP given the attach point: L2+
// responses for an L1 prefetcher, LLC+ for an L2 prefetcher.
func effLevel(attachL2 bool) mem.Level {
	if attachL2 {
		return mem.LevelLLC
	}
	return mem.LevelL2
}
