// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark regenerates its figure at a reduced scale (a representative mix
// subset on 8 scaled cores) and reports the figure's headline numbers as
// custom benchmark metrics, so `go test -bench=.` reproduces the whole
// evaluation and prints the measured shape next to the timing.
//
// The benchScale is deliberately small — the same experiments run at any
// scale through cmd/clipsim (-full sweeps all 45+200 mixes).
package clip

import (
	"flag"
	"testing"

	"clip/internal/experiments"
	"clip/internal/runner"
)

// benchWorkers bounds concurrent simulations per benchmarked experiment
// (0 = GOMAXPROCS). Reported figure values are identical for any setting;
// only wall-clock changes: `go test -bench=Fig01 -workers 1`.
var benchWorkers = flag.Int("workers", 0, "concurrent simulations per benchmarked experiment (0 = GOMAXPROCS)")

// benchScale keeps each figure benchmark in the seconds range.
func benchScale() Scale {
	return Scale{
		Cores: 8, InstrPerCore: 8000, Warmup: 2000, CacheDiv: 8,
		HomMixes: 2, HetMixes: 1, CloudMixes: 2,
		Channels: []int{8}, Seed: 1,
		Workers: *benchWorkers,
	}
}

// runFig executes one registered experiment per iteration and exports the
// chosen headline values as metrics.
func runFig(b *testing.B, name string, metrics ...string) {
	b.Helper()
	e, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	var rep *Report
	for i := 0; i < b.N; i++ {
		// Drop the process-wide run cache so every iteration simulates
		// (otherwise iterations 2..N would time cache lookups).
		runner.ResetShared()
		rep, err = e.Run(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkFig01_PrefetchersVsChannels_Hom(b *testing.B) {
	runFig(b, "fig1", "berti@8ch", "berti@64ch")
}

func BenchmarkFig02_PrefetchersVsChannels_Het(b *testing.B) {
	runFig(b, "fig2", "berti@8ch", "berti@64ch")
}

func BenchmarkFig03_MissLatencyInflation(b *testing.B) {
	runFig(b, "fig3", "L2@8ch", "LLC@8ch")
}

func BenchmarkFig04_PriorPredictorAccuracy(b *testing.B) {
	runFig(b, "fig4", "fvp.accuracy", "fvp.coverage", "crisp.coverage")
}

func BenchmarkFig05_BertiWithPriorPredictors(b *testing.B) {
	runFig(b, "fig5", "hom.berti@8ch", "hom.berti+crisp@8ch")
}

func BenchmarkFig06_BertiWithThrottlers(b *testing.B) {
	runFig(b, "fig6", "hom.berti@8ch", "hom.berti+fdp@8ch")
}

func BenchmarkFig09_ClipWithPrefetchers(b *testing.B) {
	runFig(b, "fig9", "hom.berti", "hom.berti+clip")
}

func BenchmarkFig10_PerMixSpeedup(b *testing.B) {
	runFig(b, "fig10", "mean.berti", "mean.clip")
}

func BenchmarkFig11_L1MissLatency(b *testing.B) {
	runFig(b, "fig11", "mean.berti", "mean.clip")
}

func BenchmarkFig12_MissCoverage(b *testing.B) {
	runFig(b, "fig12", "L1.berti", "L1.clip")
}

func BenchmarkFig13_ClipPredictionAccuracy(b *testing.B) {
	runFig(b, "fig13", "mean.clip", "mean.best-prior")
}

func BenchmarkFig14_ClipPredictionCoverage(b *testing.B) {
	runFig(b, "fig14", "mean")
}

func BenchmarkFig15_CriticalIPCounts(b *testing.B) {
	runFig(b, "fig15", "mean.static", "mean.dynamic")
}

func BenchmarkFig16_PrefetchTrafficReduction(b *testing.B) {
	runFig(b, "fig16", "mean.reduction")
}

func BenchmarkFig17_CloudSuiteCVP(b *testing.B) {
	runFig(b, "fig17", "berti@8ch", "berti+clip@8ch")
}

func BenchmarkFig18_TableSizeSensitivity(b *testing.B) {
	runFig(b, "fig18", "0.25x", "1x", "4x")
}

func BenchmarkFig19_ClipChannelsHom(b *testing.B) {
	runFig(b, "fig19", "berti+clip@8ch", "berti+clip@64ch")
}

func BenchmarkFig20_ClipChannelsHet(b *testing.B) {
	runFig(b, "fig20", "berti+clip@8ch")
}

func BenchmarkFig21_HermesDSPatch(b *testing.B) {
	runFig(b, "fig21", "hom.berti+hermes@8ch", "hom.berti+dspatch@8ch", "hom.berti+clip@8ch")
}

func BenchmarkTable2_StorageOverhead(b *testing.B) {
	runFig(b, "table2", "total.KB")
}

func BenchmarkEnergy_Dynamic(b *testing.B) {
	runFig(b, "energy", "hom.reduction", "het.reduction")
}

func BenchmarkSens_Cores(b *testing.B) {
	runFig(b, "sens-cores", "8.berti", "8.clip")
}

func BenchmarkSens_LLCSize(b *testing.B) {
	runFig(b, "sens-llc")
}

func BenchmarkAblation_Signature(b *testing.B) {
	runFig(b, "ablation-signature", "signature.accuracy", "ip-only.accuracy")
}

func BenchmarkAblation_Stages(b *testing.B) {
	runFig(b, "ablation-stages", "two-stage", "criticality-only")
}

func BenchmarkAblation_Thresholds(b *testing.B) {
	runFig(b, "ablation-thresholds", "hitrate.0.50x")
}

func BenchmarkAblation_Priority(b *testing.B) {
	runFig(b, "ablation-priority", "berti+clip", "clip-noprio")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (core-cycles
// per second across the whole system) — the cost of one experiment point.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := BenchThroughputConfig()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkTickIdle measures the event-horizon fast path where it matters
// most: a bandwidth-saturated single-channel system whose cores spend almost
// every cycle stalled on DRAM. With skipping on, the loop jumps between
// completion horizons instead of walking idle cores, caches and an empty
// mesh; the skip/noskip sub-benchmarks quantify that gap on the same host
// (the contract is >= 2x cycles/s, checked by CI via cmd/clipbench).
func BenchmarkTickIdle(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"skip", false}, {"noskip", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := BenchTickIdleConfig(mode.disable)
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkTickBusy measures the busy-phase tick loop: each evaluated
// prefetcher in turn, gated by CLIP, on an unsaturated four-channel bus.
// Cores rarely stall there, so per-cycle cost is dominated by the
// associative-table hot paths (prefetcher training, criticality prediction,
// CLIP's per-IP filter). One sub-benchmark per prefetcher keeps each
// engine's cost — and its allocations — individually visible.
func BenchmarkTickBusy(b *testing.B) {
	for _, pf := range []string{"berti", "ipcp", "bingo", "spppf", "stride"} {
		b.Run(pf, func(b *testing.B) {
			cfg := BenchTickBusyConfig(pf)
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

func BenchmarkExtension_DynamicClip(b *testing.B) {
	runFig(b, "ablation-dynamic", "berti+dynclip@8ch", "berti+clip@8ch", "berti@64ch")
}
