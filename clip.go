// Package clip is a from-scratch Go reproduction of "CLIP: Load Criticality
// based Data Prefetching for Bandwidth-constrained Many-core Systems"
// (Biswabandan Panda, MICRO 2023).
//
// The package is the public facade over a complete many-core simulation
// stack built for the reproduction: an out-of-order core model, a three-level
// non-inclusive cache hierarchy with MSHRs, a mesh NoC, a multi-channel DDR4
// memory system, the four state-of-the-art prefetchers the paper evaluates
// (Berti, IPCP, Bingo, SPP-PPF), six prior load-criticality predictors,
// four prefetch throttlers, Hermes and DSPatch — and CLIP itself.
//
// # Quick start
//
//	cfg := clip.DefaultConfig(8, 1, 8)   // 8 cores, 1 channel, 1/8-scale caches
//	cfg.Prefetcher = "berti"
//	cc := clip.DefaultCLIPConfig()
//	cfg.CLIP = &cc                       // gate Berti with CLIP
//	res, err := clip.Run(cfg)
//
// # Reproducing the paper
//
// Every table and figure of the paper's evaluation has a runnable
// counterpart; list them with Experiments and run one with RunExperiment:
//
//	rep, err := clip.RunExperiment("fig9", clip.QuickScale())
//	fmt.Println(rep)
//
// The cmd/clipsim binary wraps the same registry for the command line.
package clip

import (
	"clip/internal/core"
	"clip/internal/experiments"
	"clip/internal/sim"
	"clip/internal/trace"
	"clip/internal/workload"
)

// Config describes one simulation run: workload, hierarchy geometry, DRAM
// channels, and the mechanism under test. See sim.Config for all fields.
type Config = sim.Config

// Result is the harvest of one run: per-core IPC, cache/DRAM/NoC statistics,
// CLIP counters and the energy model output.
type Result = sim.Result

// CacheGeom sizes one cache level.
type CacheGeom = sim.CacheGeom

// CLIPConfig parameterises the CLIP mechanism (Table 2 of the paper).
type CLIPConfig = core.Config

// Mix assigns one benchmark per core.
type Mix = workload.Mix

// Variant mutates a base configuration into one evaluated design point.
type Variant = workload.Variant

// Runner executes mixes and computes the paper's normalized weighted speedup.
type Runner = workload.Runner

// Scale sizes an experiment (core count, instructions, mix counts, channel
// sweep).
type Scale = experiments.Scale

// Report is an experiment's output: tables, series and headline values.
type Report = experiments.Report

// Experiment is a runnable entry of the reproduction registry.
type Experiment = experiments.Entry

// DefaultConfig builds the paper's per-core configuration (Table 3) scaled
// by div (1 = full size), with the given core and DRAM channel counts.
func DefaultConfig(cores, channels, div int) Config {
	return sim.DefaultConfig(cores, channels, div)
}

// DefaultCLIPConfig returns CLIP's published configuration: 128-entry
// criticality filter, 512-entry criticality predictor, 64-entry utility
// buffer, 90% per-IP hit-rate threshold (1.56 KB/core).
func DefaultCLIPConfig() CLIPConfig { return core.DefaultConfig() }

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// NewRunner wraps a template config for mix-based evaluation with weighted
// speedup normalization.
func NewRunner(template Config) *Runner { return workload.NewRunner(template) }

// HomogeneousMixes returns the paper's 45 homogeneous SPEC CPU2017 mixes for
// the given core count (limit > 0 truncates).
func HomogeneousMixes(cores, limit int) []Mix {
	return workload.Homogeneous(cores, limit)
}

// HeterogeneousMixes returns n random SPEC+GAP mixes (deterministic in seed).
func HeterogeneousMixes(n, cores int, seed uint64) []Mix {
	return workload.Heterogeneous(n, cores, seed)
}

// CloudCVPMixes returns the CloudSuite and CVP homogeneous mixes.
func CloudCVPMixes(cores, limit int) []Mix {
	return workload.CloudCVP(cores, limit)
}

// Workloads lists every registered synthetic benchmark name.
func Workloads() []string { return trace.AllNames() }

// Experiments returns the registry of paper reproductions, in paper order.
func Experiments() []Experiment { return experiments.All() }

// QuickScale is the fast experiment scale (subset of mixes, 8 scaled cores).
func QuickScale() Scale { return experiments.Quick() }

// FullScale runs every mix the paper uses (long).
func FullScale() Scale { return experiments.Full() }

// RunExperiment runs one named experiment ("fig1".."fig21", "table2",
// "energy", "sens-*", "ablation-*") at the given scale.
func RunExperiment(name string, sc Scale) (*Report, error) {
	e, err := experiments.Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.Run(sc)
}

// StorageBudget returns CLIP's Table 2 storage accounting for a config and
// ROB size, in bits per structure.
func StorageBudget(cfg CLIPConfig, robEntries int) []core.StorageItem {
	return core.StorageBudget(cfg, robEntries)
}

// TotalStorageBytes sums the storage budget (paper: ~1.56 KB/core).
func TotalStorageBytes(cfg CLIPConfig, robEntries int) float64 {
	return core.TotalStorageBytes(cfg, robEntries)
}
