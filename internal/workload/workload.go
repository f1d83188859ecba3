// Package workload builds the paper's workload mixes (45 homogeneous SPEC
// CPU2017 mixes, 200 random heterogeneous SPEC+GAP mixes, CloudSuite and CVP
// mixes) and computes the evaluation metric: weighted speedup normalized to
// no-prefetching (§5, "we report performance in terms of weighted speedup
// with respect to no prefetching").
package workload

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/runner"
	"clip/internal/sim"
	"clip/internal/stats"
	"clip/internal/trace"
)

// Mix is a named assignment of one benchmark per core.
type Mix struct {
	Name       string
	Benchmarks []string
}

// Homogeneous returns the paper's 45 homogeneous mixes: every core runs the
// same SPEC trace (SPEC RATE mode). limit > 0 truncates the list (for quick
// runs); limit <= 0 keeps all 45.
func Homogeneous(cores, limit int) []Mix {
	names := trace.SpecHomogeneous45
	if limit > 0 && limit < len(names) {
		names = names[:limit]
	}
	mixes := make([]Mix, 0, len(names))
	for _, n := range names {
		mixes = append(mixes, homogeneousMix(n, cores))
	}
	return mixes
}

func homogeneousMix(bench string, cores int) Mix {
	bs := make([]string, cores)
	for i := range bs {
		bs[i] = bench
	}
	return Mix{Name: bench, Benchmarks: bs}
}

// Heterogeneous returns n random mixes drawn from the SPEC and GAP pools
// "randomly with no bias towards any specific benchmark" (§5). Deterministic
// in seed.
func Heterogeneous(n, cores int, seed uint64) []Mix {
	pool := append(append([]string{}, trace.SpecHomogeneous45...), trace.GAPTraces...)
	rng := mem.NewPRNG(seed ^ 0x48e7e20) // 'hetero' salt
	mixes := make([]Mix, 0, n)
	for i := 0; i < n; i++ {
		bs := make([]string, cores)
		for c := range bs {
			bs[c] = pool[rng.Intn(len(pool))]
		}
		mixes = append(mixes, Mix{Name: fmt.Sprintf("het-%03d", i), Benchmarks: bs})
	}
	return mixes
}

// CloudCVP returns homogeneous mixes over the CloudSuite and CVP traces
// (Figure 17). limit truncates as in Homogeneous.
func CloudCVP(cores, limit int) []Mix {
	names := append(append([]string{}, trace.CloudSuiteTraces...), trace.CVPTraces...)
	if limit > 0 && limit < len(names) {
		names = names[:limit]
	}
	mixes := make([]Mix, 0, len(names))
	for _, n := range names {
		mixes = append(mixes, homogeneousMix(n, cores))
	}
	return mixes
}

// Variant mutates a base configuration into one evaluated design point
// (e.g. "berti", "berti+clip", "berti+fdp").
type Variant struct {
	Name   string
	Mutate func(*sim.Config)
}

// Runner executes mixes against a template configuration and converts raw
// results into the paper's normalized weighted speedup. Alone-mode IPCs (the
// denominator of weighted speedup) and per-mix no-prefetch baselines are
// memoized with singleflight semantics, so a Runner is safe for concurrent
// use by the parallel experiment engine: two workers asking for the same
// baseline wait on one simulation instead of duplicating it.
//
// Raw simulation runs additionally flow through a fingerprint-keyed run
// cache (Cache; the process-wide runner.Shared() by default), so
// byte-identical configurations — which different figures re-run constantly,
// baselines above all — execute exactly once per process. Results coming out
// of a Runner are therefore shared and must be treated as read-only.
type Runner struct {
	// Template is the base configuration; Workload is overwritten per mix.
	Template sim.Config

	// Cache dedups and memoizes raw simulation runs across Runners and
	// figures. Nil selects the process-wide shared cache.
	Cache *runner.Cache

	alone    runner.Memo[string, float64]
	baseline runner.Memo[string, baseEntry]
}

type baseEntry struct {
	res *sim.Result
	ws  float64
}

// NewRunner wraps a template configuration.
func NewRunner(template sim.Config) *Runner {
	return &Runner{Template: template}
}

func (r *Runner) cache() *runner.Cache {
	if r.Cache != nil {
		return r.Cache
	}
	return runner.Shared()
}

// AloneIPC returns the benchmark's IPC running alone on the full system (all
// channels, no co-runners, no prefetching) — the weighted-speedup baseline.
// Concurrent callers for the same benchmark share one simulation.
func (r *Runner) AloneIPC(bench string) (float64, error) {
	return r.alone.Do(bench, func() (float64, error) {
		cfg := r.Template
		cfg.Workload = []string{bench}
		cfg.Prefetcher = "none"
		cfg.CLIP = nil
		cfg.DynamicCLIP = false
		cfg.CritPredictor = ""
		cfg.ScorePredictors = false
		cfg.Throttler = ""
		cfg.Hermes = false
		cfg.DSPatch = false
		res, err := r.cache().Run(cfg)
		if err != nil {
			return 0, err
		}
		return res.IPC[0], nil
	})
}

// RunMix executes one mix under a variant and returns the raw result plus
// its weighted speedup. The result is shared with other callers of the same
// configuration and must not be mutated.
func (r *Runner) RunMix(mix Mix, v Variant) (*sim.Result, float64, error) {
	cfg := r.Template
	cfg.Workload = append([]string{}, mix.Benchmarks...)
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	res, err := r.cache().Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	alone := make([]float64, len(mix.Benchmarks))
	for i, b := range mix.Benchmarks {
		a, err := r.AloneIPC(b)
		if err != nil {
			return nil, 0, err
		}
		alone[i] = a
	}
	return res, stats.WeightedSpeedup(res.IPC, alone), nil
}

// NormalizedWS runs baseline (no prefetching) and the variant on a mix and
// returns WS(variant)/WS(no-PF) — the y-axis of Figures 1, 2, 5, 6, 9, 10,
// 17, 19, 20 and 21. The per-mix baseline is computed once per Runner no
// matter how many variants (or concurrent workers) ask for it.
func (r *Runner) NormalizedWS(mix Mix, v Variant) (float64, *sim.Result, *sim.Result, error) {
	be, err := r.baseline.Do(mix.Name, func() (baseEntry, error) {
		baseRes, baseWS, err := r.RunMix(mix, Variant{Name: "no-pf"})
		if err != nil {
			return baseEntry{}, err
		}
		return baseEntry{res: baseRes, ws: baseWS}, nil
	})
	if err != nil {
		return 0, nil, nil, err
	}
	varRes, varWS, err := r.RunMix(mix, v)
	if err != nil {
		return 0, nil, nil, err
	}
	return stats.SafeDiv(varWS, be.ws), varRes, be.res, nil
}
