package trace

import (
	"fmt"
	"sort"

	"clip/internal/mem"
)

// Scale resolves benchmark footprints against the simulated cache hierarchy.
// Benchmark intensity is defined relative to the LLC capacity per core so the
// same workload names remain memory-intensive when the harness scales the
// hierarchy down for fast runs.
type Scale struct {
	// LLCLinesPerCore is the per-core LLC capacity in cache lines.
	LLCLinesPerCore uint64
}

// DefaultScale matches the paper's 2MB/core LLC.
var DefaultScale = Scale{LLCLinesPerCore: 32768}

// family captures the behavioural template for one benchmark family; members
// differ in seed and slight parameter jitter, like distinct SimPoints.
type family struct {
	build func(name string, seed uint64, sc Scale) Config
}

// llcMult converts an LLC-relative footprint to lines, min 256.
func llcMult(sc Scale, m float64) uint64 {
	v := uint64(float64(sc.LLCLinesPerCore) * m)
	if v < 256 {
		v = 256
	}
	return v
}

var specFamilies = map[string]family{
	// perlbench: cache-friendly, low MPKI, branchy.
	"600.perlbench": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 3},
				{Class: PatIrregular, Weight: 1},
			},
			FootprintLines: llcMult(sc, 0.2), LoadFrac: 0.25, StoreFrac: 0.10,
			BranchFrac: 0.18, BranchMispredictRate: 0.04, ExecLatMean: 2}
	}},
	// gcc: mixed, moderate MPKI, branch-correlated pockets.
	"602.gcc": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 2},
				{Class: PatMixed, StrideLines: 1, Weight: 2},
				{Class: PatIrregular, Weight: 1},
			},
			FootprintLines: llcMult(sc, 2), LoadFrac: 0.26, StoreFrac: 0.10,
			BranchFrac: 0.16, BranchMispredictRate: 0.05, MixedTakenProb: 0.6,
			ExecLatMean: 2}
	}},
	// bwaves: heavy regular streams, bandwidth-bound, prefetch-friendly.
	"603.bwaves": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 4},
				{Class: PatStream, StrideLines: 2, Weight: 2},
				{Class: PatMultiStride, StrideLines: 1, Weight: 1},
			},
			FootprintLines: llcMult(sc, 6), StreamRegionLines: llcMult(sc, 6),
			LoadFrac: 0.32, StoreFrac: 0.12, BranchFrac: 0.06,
			BranchMispredictRate: 0.01, ExecLatMean: 3}
	}},
	// mcf: pointer chasing + branch-correlated criticality; the paper's
	// canonical dynamic-critical workload (mcf_1554B discussed in §4.2).
	"605.mcf": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatChase, Weight: 3},
				{Class: PatMixed, StrideLines: 1, Weight: 2},
				{Class: PatStream, StrideLines: 1, Weight: 1},
			},
			FootprintLines: llcMult(sc, 8), LoadFrac: 0.30, StoreFrac: 0.08,
			BranchFrac: 0.17, BranchMispredictRate: 0.08, MixedTakenProb: 0.5,
			ChaseChainFrac: 0.9, ExecLatMean: 2}
	}},
	// cactuBSSN: many concurrent strided streams whose interleaving defeats
	// naive per-IP deltas (paper: Berti accuracy only 12% on cactu_2421B).
	"607.cactuBSSN": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatMultiStride, StrideLines: 3, Weight: 3},
				{Class: PatMultiStride, StrideLines: 7, Weight: 3},
				{Class: PatIrregular, Weight: 2},
				{Class: PatStream, StrideLines: 5, Weight: 1},
			},
			FootprintLines: llcMult(sc, 5), StreamRegionLines: llcMult(sc, 4),
			LoadFrac: 0.34, StoreFrac: 0.13, BranchFrac: 0.04,
			BranchMispredictRate: 0.01, ExecLatMean: 4}
	}},
	// lbm: few IPs, huge unit-stride streams, extreme bandwidth demand.
	"619.lbm": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 5},
				{Class: PatStream, StrideLines: 1, Weight: 4},
			},
			FootprintLines: llcMult(sc, 10), StreamRegionLines: llcMult(sc, 10),
			LoadFrac: 0.30, StoreFrac: 0.18, BranchFrac: 0.03,
			BranchMispredictRate: 0.005, ExecLatMean: 3}
	}},
	// omnetpp: pointer-heavy discrete event simulation, low regularity.
	"620.omnetpp": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatChase, Weight: 3},
				{Class: PatIrregular, Weight: 2},
				{Class: PatMixed, StrideLines: 1, Weight: 1},
			},
			FootprintLines: llcMult(sc, 4), LoadFrac: 0.28, StoreFrac: 0.12,
			BranchFrac: 0.15, BranchMispredictRate: 0.06, MixedTakenProb: 0.55,
			ChaseChainFrac: 0.8, ExecLatMean: 2}
	}},
	// wrf: weather model, strided with phase behaviour.
	"621.wrf": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 3},
				{Class: PatMultiStride, StrideLines: 2, Weight: 2},
				{Class: PatIrregular, Weight: 1},
			},
			FootprintLines: llcMult(sc, 3), StreamRegionLines: llcMult(sc, 3),
			LoadFrac: 0.30, StoreFrac: 0.11, BranchFrac: 0.08,
			BranchMispredictRate: 0.02, ExecLatMean: 3, PhasePeriod: 40000}
	}},
	// xalancbmk: XML transform, irregular with hot streams.
	"623.xalancbmk": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatIrregular, Weight: 2},
				{Class: PatStream, StrideLines: 1, Weight: 2},
				{Class: PatMixed, StrideLines: 1, Weight: 2},
			},
			FootprintLines: llcMult(sc, 3), LoadFrac: 0.27, StoreFrac: 0.09,
			BranchFrac: 0.17, BranchMispredictRate: 0.05, MixedTakenProb: 0.65,
			ExecLatMean: 2}
	}},
	// pop2: ocean model, streams plus halo-exchange irregularity.
	"628.pop2": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 3},
				{Class: PatMultiStride, StrideLines: 4, Weight: 2},
				{Class: PatIrregular, Weight: 1},
			},
			FootprintLines: llcMult(sc, 3), StreamRegionLines: llcMult(sc, 3),
			LoadFrac: 0.29, StoreFrac: 0.12, BranchFrac: 0.09,
			BranchMispredictRate: 0.02, ExecLatMean: 3}
	}},
	// leela: game tree search, small footprint, branchy (low MPKI filler).
	"641.leela": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatIrregular, Weight: 1},
				{Class: PatStream, StrideLines: 1, Weight: 2},
			},
			FootprintLines: llcMult(sc, 0.4), LoadFrac: 0.24, StoreFrac: 0.08,
			BranchFrac: 0.2, BranchMispredictRate: 0.09, ExecLatMean: 2}
	}},
	// fotonik3d: electromagnetic solver, very regular streams.
	"649.fotonik3d": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 4},
				{Class: PatStream, StrideLines: 2, Weight: 2},
			},
			FootprintLines: llcMult(sc, 8), StreamRegionLines: llcMult(sc, 8),
			LoadFrac: 0.31, StoreFrac: 0.14, BranchFrac: 0.04,
			BranchMispredictRate: 0.005, ExecLatMean: 3}
	}},
	// roms: ocean model, multi-stream with moderate irregularity.
	"654.roms": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 3},
				{Class: PatStream, StrideLines: 3, Weight: 2},
				{Class: PatMultiStride, StrideLines: 2, Weight: 2},
				{Class: PatIrregular, Weight: 1},
			},
			FootprintLines: llcMult(sc, 5), StreamRegionLines: llcMult(sc, 5),
			LoadFrac: 0.31, StoreFrac: 0.12, BranchFrac: 0.06,
			BranchMispredictRate: 0.015, ExecLatMean: 3}
	}},
	// xz: compression, mixed streams and matches.
	"657.xz": {func(n string, s uint64, sc Scale) Config {
		return Config{Name: n, Seed: s,
			Sites: []SiteSpec{
				{Class: PatStream, StrideLines: 1, Weight: 2},
				{Class: PatIrregular, Weight: 2},
				{Class: PatMixed, StrideLines: 1, Weight: 1},
			},
			FootprintLines: llcMult(sc, 2.5), LoadFrac: 0.27, StoreFrac: 0.10,
			BranchFrac: 0.13, BranchMispredictRate: 0.06, MixedTakenProb: 0.5,
			ExecLatMean: 2}
	}},
}

// SpecHomogeneous45 lists the 45 memory-intensive SPEC CPU2017 SimPoint trace
// names the paper's homogeneous mixes use (Figure 10's x-axis).
var SpecHomogeneous45 = []string{
	"600.perlbench_s-570B",
	"602.gcc_s-1850B", "602.gcc_s-2226B", "602.gcc_s-734B",
	"603.bwaves_s-1740B", "603.bwaves_s-2609B", "603.bwaves_s-2931B", "603.bwaves_s-891B",
	"605.mcf_s-1152B", "605.mcf_s-1536B", "605.mcf_s-1554B", "605.mcf_s-1644B",
	"605.mcf_s-472B", "605.mcf_s-484B", "605.mcf_s-566B", "605.mcf_s-782B", "605.mcf_s-994B",
	"607.cactuBSSN_s-2421B", "607.cactuBSSN_s-3477B", "607.cactuBSSN_s-4004B",
	"619.lbm_s-2676B", "619.lbm_s-2677B", "619.lbm_s-3766B", "619.lbm_s-4268B",
	"620.omnetpp_s-141B", "620.omnetpp_s-874B",
	"621.wrf_s-6673B", "621.wrf_s-8065B",
	"623.xalancbmk_s-10B", "623.xalancbmk_s-165B", "623.xalancbmk_s-202B",
	"628.pop2_s-17B",
	"641.leela_s-1083B",
	"649.fotonik3d_s-10881B", "649.fotonik3d_s-1176B", "649.fotonik3d_s-7084B",
	"649.fotonik3d_s-8225B",
	"654.roms_s-1007B", "654.roms_s-1070B", "654.roms_s-1390B", "654.roms_s-1613B",
	"654.roms_s-293B", "654.roms_s-294B", "654.roms_s-523B",
	"657.xz_s-1306B",
}

// GAPTraces lists the GAP benchmark traces used in heterogeneous mixes.
var GAPTraces = []string{
	"bc-twitter", "bc-web", "bfs-twitter", "bfs-web", "bfs-road",
	"cc-twitter", "cc-web", "pr-twitter", "pr-web", "pr-kron",
	"sssp-twitter", "sssp-road", "tc-twitter", "tc-urand",
	"bc-road", "cc-road",
}

// CloudSuiteTraces lists the CloudSuite workloads (Figure 17).
var CloudSuiteTraces = []string{
	"cassandra", "classification", "cloud9", "nutch", "streaming",
}

// CVPTraces lists the client/server CVP-1 traces (Figure 17). server_013 is
// called out in the paper (§4.3: 32k IPs, only nine critical).
var CVPTraces = []string{
	"client_001", "client_002", "client_005", "client_008",
	"server_001", "server_002", "server_003", "server_009",
	"server_013", "server_021",
}

func gapConfig(name string, seed uint64, sc Scale) Config {
	return Config{Name: name, Seed: seed,
		Sites: []SiteSpec{
			{Class: PatIrregular, Weight: 4}, // frontier gathers
			{Class: PatStream, StrideLines: 1, Weight: 2},
			{Class: PatChase, Weight: 1},
		},
		FootprintLines: llcMult(sc, 12), LoadFrac: 0.30, StoreFrac: 0.06,
		BranchFrac: 0.14, BranchMispredictRate: 0.07, ChaseChainFrac: 0.5,
		ExecLatMean: 2}
}

func cloudConfig(name string, seed uint64, sc Scale) Config {
	return Config{Name: name, Seed: seed,
		Sites: []SiteSpec{
			{Class: PatIrregular, Weight: 3},
			{Class: PatChase, Weight: 1},
			{Class: PatStream, StrideLines: 1, Weight: 1},
		},
		FootprintLines: llcMult(sc, 3), LoadFrac: 0.26, StoreFrac: 0.10,
		BranchFrac: 0.18, BranchMispredictRate: 0.07, ChaseChainFrac: 0.4,
		// Large instruction footprints alias criticality tables (§4.3).
		IPFootprint: 24, ExecLatMean: 2}
}

func cvpConfig(name string, seed uint64, sc Scale) Config {
	cfg := cloudConfig(name, seed, sc)
	cfg.IPFootprint = 32
	cfg.FootprintLines = llcMult(sc, 2)
	return cfg
}

// jitter perturbs a family template per SimPoint: distinct simulation points
// of one benchmark share behaviour but differ in intensity, exactly like the
// paper's nine mcf SimPoints spanning a range of MPKIs. Deterministic in the
// trace name.
func jitter(cfg Config, name string) Config {
	h := mem.HashString(name + "/jitter")
	scale := func(base float64, h uint64, spread float64) float64 {
		// uniform in [1-spread, 1+spread]
		u := float64(h%1024)/1024*2 - 1
		return base * (1 + spread*u)
	}
	cfg.FootprintLines = uint64(scale(float64(cfg.FootprintLines), h, 0.30))
	if cfg.FootprintLines < 256 {
		cfg.FootprintLines = 256
	}
	if cfg.StreamRegionLines > 0 {
		cfg.StreamRegionLines = uint64(scale(float64(cfg.StreamRegionLines), h>>10, 0.30))
	}
	cfg.LoadFrac = scale(cfg.LoadFrac, h>>20, 0.10)
	cfg.BranchMispredictRate = scale(cfg.BranchMispredictRate, h>>30, 0.25)
	if cfg.MixedTakenProb > 0 {
		cfg.MixedTakenProb = scale(cfg.MixedTakenProb, h>>40, 0.15)
		if cfg.MixedTakenProb > 0.95 {
			cfg.MixedTakenProb = 0.95
		}
	}
	return cfg
}

// Lookup builds the Config for a paper trace name at the given scale.
func Lookup(name string, sc Scale) (Config, error) {
	seed := mem.HashString(name)
	// SPEC names are "<family>_s-<simpoint>B". Pick the longest matching
	// family so the result cannot depend on map iteration order should one
	// family name ever be a prefix of another (e.g. "x264" vs "x").
	var bestFam string
	//clipvet:orderfree longest-prefix max is a commutative reduction
	for fam := range specFamilies {
		if len(name) > len(fam) && name[:len(fam)] == fam && len(fam) > len(bestFam) {
			bestFam = fam
		}
	}
	if bestFam != "" {
		return jitter(specFamilies[bestFam].build(name, seed, sc), name), nil
	}
	for _, g := range GAPTraces {
		if g == name {
			return gapConfig(name, seed, sc), nil
		}
	}
	for _, c := range CloudSuiteTraces {
		if c == name {
			return cloudConfig(name, seed, sc), nil
		}
	}
	for _, c := range CVPTraces {
		if c == name {
			return cvpConfig(name, seed, sc), nil
		}
	}
	return Config{}, fmt.Errorf("trace: unknown workload %q", name)
}

// AllNames returns every registered trace name, sorted.
func AllNames() []string {
	var names []string
	names = append(names, SpecHomogeneous45...)
	names = append(names, GAPTraces...)
	names = append(names, CloudSuiteTraces...)
	names = append(names, CVPTraces...)
	sort.Strings(names)
	return names
}
