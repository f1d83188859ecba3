package clip

// This file defines the canonical configurations behind the throughput
// benchmarks (BenchmarkSimulatorThroughput, BenchmarkTickIdle and
// BenchmarkTickBusy) so that `go test -bench` and cmd/clipbench — the JSON
// emitter CI compares against the checked-in baseline — measure exactly the
// same workloads.

// BenchThroughputConfig is the standard simulation-speed workload: an
// 8-core berti+CLIP run on one channel, the cost of one experiment point.
func BenchThroughputConfig() Config {
	cfg := DefaultConfig(8, 1, 8)
	cfg.InstrPerCore = 10000
	cfg.WarmupInstr = 0
	cfg.Prefetcher = "berti"
	cc := DefaultCLIPConfig()
	cfg.CLIP = &cc
	return cfg
}

// BenchTickIdleConfig is the mostly-stalled workload the event-horizon fast
// path targets: a single saturated channel with 160-cycle line transfers
// keeps every ROB head waiting on DRAM for long stretches, so with skipping
// enabled the loop jumps between completion horizons instead of walking idle
// cores, caches and an empty mesh. disableSkip selects the strict per-cycle
// loop for the same workload (the "noskip" sub-benchmark / baseline arm).
func BenchTickIdleConfig(disableSkip bool) Config {
	cfg := DefaultConfig(8, 1, 8)
	cfg.InstrPerCore = 6000
	cfg.WarmupInstr = 0
	cfg.TransferCycles = 160
	cfg.Prefetcher = "none"
	cfg.DisableSkip = disableSkip
	return cfg
}

// BenchTickBusyConfig is the busy-phase counterpart of BenchTickIdleConfig:
// the named prefetcher gated by CLIP on an 8-core, four-channel system. With
// the bus unsaturated, cores rarely stall on DRAM and the tick loop spends
// its time in the associative-table hot paths — prefetcher training, the
// criticality predictor and CLIP's per-IP filter — which is exactly the code
// the map-free table kernels replace.
func BenchTickBusyConfig(prefetcher string) Config {
	cfg := DefaultConfig(8, 4, 8)
	cfg.InstrPerCore = 6000
	cfg.WarmupInstr = 0
	cfg.Prefetcher = prefetcher
	cc := DefaultCLIPConfig()
	cfg.CLIP = &cc
	return cfg
}
