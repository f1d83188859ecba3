package sim

import (
	"fmt"

	"clip/internal/core"
)

// skipMatrix enumerates the mechanism combinations the skip-equivalence
// contract is enforced over: each entry must produce byte-identical results
// with event-horizon cycle skipping on and off. The set covers every
// subsystem whose deadlines fold into the horizon — Hermes holds, throttler
// epochs, dynamic CLIP sampling, and the NoC critical-priority arbitration —
// and, in the stall-* arms, every structural stall a component sleeps on
// (DESIGN.md "Time model & event horizons"): L1 MSHR-full heads, cores
// refused by a full L1D queue behind a DTLB hit, full controller read queues
// and the retry rings behind them. The stall arms that need controller
// queues smaller than any Config reaches live in stall_test.go.
func skipMatrix() map[string]Config {
	base := func(bench string) Config {
		cfg := DefaultConfig(4, 1, 8)
		for i := range cfg.Workload {
			cfg.Workload[i] = bench
		}
		cfg.InstrPerCore = 4000
		cfg.WarmupInstr = 1000
		// A slow bus keeps cores stalled on DRAM for long stretches, so the
		// skipping fast path actually engages (idle fabric, quiescent caches)
		// rather than degenerating into the per-cycle loop.
		cfg.TransferCycles = 40
		cfg.Prefetcher = "berti"
		return cfg
	}
	m := map[string]Config{}
	m["clip"] = withCLIP(base("619.lbm_s-2676B"))

	hermes := withCLIP(base("605.mcf_s-665B"))
	hermes.Hermes = true
	m["hermes"] = hermes

	throt := base("619.lbm_s-2676B")
	throt.Throttler = "fdp"
	m["throttler"] = throt

	dyn := withCLIP(base("619.lbm_s-2676B"))
	dyn.DynamicCLIP = true
	m["dynclip"] = dyn

	nocOff := withCLIP(base("602.gcc_s-734B"))
	nocOff.NoCCriticalPriority = false
	nocOff.DRAMCriticalPriority = false
	m["noc-prio-off"] = nocOff

	mixed := base("620.omnetpp_s-874B")
	mixed.Workload[1] = "619.lbm_s-2676B"
	mixed.Workload[2] = "605.mcf_s-665B"
	mixed.DSPatch = true
	m["het-dspatch"] = mixed

	// A criticality predictor registers the core's OnRetire listener, so this
	// config pins the retire-event path (per-entry event materialization)
	// that the listener-free fast path skips.
	crit := base("605.mcf_s-665B")
	crit.CritPredictor = "catch"
	m["critpred"] = crit

	// Stall-heavy arms: one channel at the real bus speed (the slow bus of
	// the arms above starves the queues instead of filling them), TLBs on.
	mshr := withCLIP(stallBase(stallMix))
	mshr.L1D.MSHRs = 3 // heads block on the MSHR file, the core behind them
	m["stall-mshr"] = mshr

	sh := stallBase(stallMix)
	sh.L1D.MSHRs = 4
	sh.Hermes = true // a refused L1 miss keeps its route and sleeps on that route's queue
	m["stall-hermes"] = sh

	// Eight cores fill the 64-entry read queue.
	m["stall-rq"] = withCLIP(stallBase(stallMix8))

	// Many-core arms: most tiles and LLC slices are asleep on most cycles, so
	// these are the ones that exercise the awake sets, the lazy settling and
	// every wake source at scale (slices parked on a dequeue of the one
	// saturated channel).
	m["mesh64"] = mesh64Arm()
	m["mesh16-1ch"] = mesh16Arm()

	return m
}

// mesh64Arm is the paper-scale shape in miniature: 64 cores on the 8x8 mesh
// behind 8 channels, berti+CLIP, a short run.
func mesh64Arm() Config {
	cfg := withCLIP(stallBase(repeatMix(stallMix8, 64)))
	cfg.Channels = 8
	cfg.InstrPerCore, cfg.WarmupInstr = 300, 100
	return cfg
}

// mesh16Arm puts 16 cores behind one channel: the read queue stays full and
// LLC heads, writebacks and the cores behind them sleep on its dequeues.
func mesh16Arm() Config {
	cfg := withCLIP(stallBase(repeatMix(stallMix8, 16)))
	cfg.InstrPerCore, cfg.WarmupInstr = 1000, 300
	return cfg
}

// repeatMix cycles mix out to n cores (per-core seeds keep the copies apart).
func repeatMix(mix []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = mix[i%len(mix)]
	}
	return out
}

// withCLIP returns cfg with CLIP at its published configuration.
func withCLIP(cfg Config) Config {
	c := core.DefaultConfig()
	cfg.CLIP = &c
	return cfg
}

// stallBase is the common shape of the stall arms: one core per entry of
// mix on one DRAM channel, Berti, a short measured run.
func stallBase(mix []string) Config {
	cfg := DefaultConfig(len(mix), 1, 8)
	cfg.Workload = append([]string(nil), mix...)
	cfg.InstrPerCore, cfg.WarmupInstr = 3000, 1000
	cfg.Prefetcher = "berti"
	return cfg
}

// stallMix is the four-core mix of the stall arms: a streamer, a pointer
// chaser and two irregular integer codes; stallMix8 is the bandwidth-bound
// eight-core mix that saturates one channel's read queue.
var (
	stallMix  = []string{"619.lbm_s-2676B", "605.mcf_s-665B", "620.omnetpp_s-874B", "602.gcc_s-734B"}
	stallMix8 = []string{"619.lbm_s-2676B", "603.bwaves_s-1740B", "649.fotonik3d_s-1176B", "654.roms_s-1007B",
		"605.mcf_s-1554B", "607.cactuBSSN_s-2421B", "620.omnetpp_s-141B", "657.xz_s-1306B"}
)

// stallCounters are the counters the sleep protocol charges in bulk; the
// equivalence harness names them before falling back to the full-report diff.
type stallCounters struct {
	L1MSHRFull, L2MSHRFull, LLCMSHRFull uint64
	RQFull, WQFull                      uint64
	TLBAccesses, DTLBHits               uint64
}

func stallCountersOf(r *Result) stallCounters {
	return stallCounters{
		L1MSHRFull: r.L1.MSHRFullEvents, L2MSHRFull: r.L2.MSHRFullEvents, LLCMSHRFull: r.LLC.MSHRFullEvents,
		RQFull: r.DRAM.RQFullEvents, WQFull: r.DRAM.WQFullEvents,
		TLBAccesses: r.TLB.Accesses, DTLBHits: r.TLB.DTLBHits,
	}
}

// firstDiff renders the neighbourhood of the first differing byte so a
// divergence points at the responsible counter instead of dumping two full
// reports.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("byte %d: ...%s... vs ...%s...", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
