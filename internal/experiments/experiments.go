// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): each Fig*/Table*/Sens* function declares the rows/series
// the paper reports and the simulations behind each number, and one driver
// (report, figure.go) runs them at a configurable scale. cmd/clipsim and the
// repository benchmarks drive these.
package experiments

import (
	"encoding/json"
	"fmt"

	"clip/internal/core"
	"clip/internal/sim"
	"clip/internal/stats"
	"clip/internal/workload"
)

// Scale sizes an experiment run. The paper's full scale (64 cores, 200M
// instructions, 45+200 mixes) is hours of host time; the default reproduces
// every shape with 8 cores and tens of kilo-instructions.
type Scale struct {
	Cores        int
	InstrPerCore uint64
	Warmup       uint64
	CacheDiv     int
	// HomMixes/HetMixes/CloudMixes bound how many mixes are run (0 = all).
	HomMixes   int
	HetMixes   int
	CloudMixes int
	// Channels lists the paper channel counts to sweep (for 64 cores).
	Channels []int
	Seed     uint64
	// Workers bounds the experiment engine's concurrently executing
	// simulations (0 = runtime.GOMAXPROCS(0)). Reports are byte-identical
	// for any worker count: jobs are enumerated and assembled in a fixed
	// order, and every simulation is deterministic in its configuration.
	Workers int
	// NoSkip forces the strict per-cycle simulation loop (clipsim
	// -skip=off). Reports are byte-identical with skipping on or off; the
	// escape hatch exists for debugging and perf comparison.
	NoSkip bool
	// WarmFork enables warmup-once-fork-many execution (bench/'s
	// suite_fig9_warm workload sets it): each figure point's variants fork
	// from one checkpointed warmup image (the mechanism-free canonical
	// warmup, sim.WarmupConfig) instead of each re-running the warmup.
	// Mechanisms start cold at the measurement barrier under this protocol,
	// so reports differ from the in-process-warmup ones — deterministically
	// so; see EXPERIMENTS.md.
	WarmFork bool
}

// Quick is the bench-friendly scale: a representative subset of mixes.
func Quick() Scale {
	return Scale{
		Cores: 8, InstrPerCore: 16000, Warmup: 4000, CacheDiv: 8,
		HomMixes: 4, HetMixes: 3, CloudMixes: 3,
		Channels: []int{4, 8, 16}, Seed: 1,
	}
}

// Full runs every mix the paper uses at the scaled core count.
func Full() Scale {
	s := Quick()
	s.HomMixes, s.HetMixes, s.CloudMixes = 0, 200, 0
	s.Channels = []int{4, 8, 16, 32, 64}
	s.InstrPerCore = 50000
	s.Warmup = 10000
	return s
}

// Report is an experiment's output.
type Report struct {
	Name   string
	About  string
	Tables []*stats.Table
	Series []*stats.Series
	// Values holds headline numbers for EXPERIMENTS.md (key -> value).
	Values map[string]float64
}

func newReport(name, about string) *Report {
	return &Report{Name: name, About: about, Values: map[string]float64{}}
}

// String renders the report, including an ASCII chart for series-bearing
// figures (normalized-WS sweeps read like the paper's bar charts).
func (r *Report) String() string {
	out := fmt.Sprintf("### %s — %s\n", r.Name, r.About)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	if len(r.Series) > 0 {
		ch := stats.Chart{Series: r.Series, Baseline: 1.0}
		out += ch.String()
	}
	if len(r.Values) > 0 {
		keys := stats.SortedKeys(r.Values)
		for _, k := range keys {
			out += fmt.Sprintf("  %s = %.4f\n", k, r.Values[k])
		}
	}
	return out
}

// channelsFor maps a paper channel count (for 64 cores) onto the scaled core
// count, preserving per-core DRAM bandwidth: fewer-than-one scaled channels
// become one channel with proportionally slower transfer.
func channelsFor(paperCh, cores int) (channels, transfer int) {
	perCore := float64(paperCh) / 64
	eff := perCore * float64(cores)
	if eff >= 1 {
		return int(eff + 0.5), 10
	}
	return 1, int(10/eff + 0.5)
}

// template builds the base config for a scale and paper channel count.
func template(sc Scale, paperCh int) sim.Config {
	ch, tr := channelsFor(paperCh, sc.Cores)
	cfg := sim.DefaultConfig(sc.Cores, ch, sc.CacheDiv)
	cfg.TransferCycles = tr
	cfg.InstrPerCore = sc.InstrPerCore
	cfg.WarmupInstr = sc.Warmup
	cfg.Seed = sc.Seed
	cfg.DisableSkip = sc.NoSkip
	return cfg
}

// homMixes returns the homogeneous mixes for a scale. The quick subset picks
// behaviourally diverse families rather than the first names alphabetically.
func homMixes(sc Scale) []workload.Mix {
	all := workload.Homogeneous(sc.Cores, 0)
	if sc.HomMixes <= 0 || sc.HomMixes >= len(all) {
		return all
	}
	// Representative order: stream-heavy, pointer-chasing, mixed, irregular.
	prefer := []string{
		"619.lbm_s-2676B", "605.mcf_s-1554B", "603.bwaves_s-1740B",
		"620.omnetpp_s-141B", "607.cactuBSSN_s-2421B", "657.xz_s-1306B",
		"649.fotonik3d_s-1176B", "602.gcc_s-1850B",
	}
	byName := map[string]workload.Mix{}
	for _, m := range all {
		byName[m.Name] = m
	}
	var picked []workload.Mix
	for _, n := range prefer {
		if m, ok := byName[n]; ok && len(picked) < sc.HomMixes {
			picked = append(picked, m)
			delete(byName, n)
		}
	}
	if len(picked) < sc.HomMixes {
		for _, n := range stats.SortedKeys(byName) {
			if len(picked) == sc.HomMixes {
				break
			}
			picked = append(picked, byName[n])
		}
	}
	return picked
}

func hetMixes(sc Scale) []workload.Mix {
	n := sc.HetMixes
	if n <= 0 {
		n = 200
	}
	return workload.Heterogeneous(n, sc.Cores, sc.Seed)
}

// Variants for the evaluated mechanisms.

func pfVariant(name string) workload.Variant {
	return workload.Variant{Name: name, Mutate: func(c *sim.Config) {
		c.Prefetcher = name
	}}
}

// mech is prefetcher pf paired with a mechanism, named pf+suffix; set
// attaches the mechanism.
func mech(pf, suffix string, set func(*sim.Config)) workload.Variant {
	return workload.Variant{Name: pf + "+" + suffix, Mutate: func(c *sim.Config) {
		c.Prefetcher = pf
		set(c)
	}}
}

func clipVariant(pf string) workload.Variant { return clipVariantCfg(pf, core.DefaultConfig()) }

func clipVariantCfg(pf string, cc core.Config) workload.Variant {
	return mech(pf, "clip", func(c *sim.Config) {
		cfg := cc
		c.CLIP = &cfg
	})
}

// Registry of all experiments for the CLI.

// Entry describes one runnable experiment.
type Entry struct {
	Name  string
	About string
	Run   func(Scale) (*Report, error)
}

// All returns the experiment registry in paper order.
func All() []Entry {
	return []Entry{
		{"fig1", "Prefetchers vs DRAM channels, homogeneous (normalized WS)", Fig1},
		{"fig2", "Prefetchers vs DRAM channels, heterogeneous (normalized WS)", Fig2},
		{"fig3", "Demand miss latency inflation with Berti vs channels", Fig3},
		{"fig4", "Prior criticality predictors: accuracy and coverage", Fig4},
		{"fig5", "Berti + prior criticality predictors vs channels", Fig5},
		{"fig6", "Berti + prefetch throttlers vs channels", Fig6},
		{"fig9", "CLIP with four prefetchers at 8 channels", Fig9},
		{"fig10", "Per-mix WS: Berti vs Berti+CLIP (homogeneous)", Fig10},
		{"fig11", "Per-mix average L1 miss latency: Berti vs Berti+CLIP", Fig11},
		{"fig12", "L1/L2/LLC miss coverage: Berti vs Berti+CLIP", Fig12},
		{"fig13", "Critical-load prediction accuracy: CLIP vs best prior", Fig13},
		{"fig14", "Critical-load prediction coverage of CLIP", Fig14},
		{"fig15", "Critical IPs selected by CLIP (static vs dynamic)", Fig15},
		{"fig16", "Prefetch request reduction with CLIP", Fig16},
		{"fig17", "CloudSuite and CVP workloads vs channels", Fig17},
		{"fig18", "CLIP table size sensitivity (0.25x..4x)", Fig18},
		{"fig19", "CLIP with prefetchers vs channels (homogeneous)", Fig19},
		{"fig20", "CLIP with prefetchers vs channels (heterogeneous)", Fig20},
		{"fig21", "Hermes vs DSPatch vs CLIP with Berti", Fig21},
		{"table2", "CLIP storage overhead", func(Scale) (*Report, error) { return Table2() }},
		{"energy", "Dynamic memory-hierarchy energy", Energy},
		{"sens-cores", "Sensitivity: core count at fixed bandwidth ratio", SensCores},
		{"sens-llc", "Sensitivity: LLC capacity per core", SensLLC},
		{"ablation-signature", "Ablation: critical signature vs IP-only indexing", AblationSignature},
		{"ablation-stages", "Ablation: criticality-only vs two-stage CLIP", AblationStages},
		{"ablation-thresholds", "Ablation: hit-rate and crit-count thresholds", AblationThresholds},
		{"ablation-priority", "Ablation: criticality-conscious NoC/DRAM on/off", AblationPriority},
		{"ablation-dynamic", "Extension (§5.3): Dynamic CLIP vs static CLIP", AblationDynamic},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Entry, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// MarshalJSON renders the report's headline values and tables as JSON for
// external tooling (clipsim -experiment <names> -json).
func (r *Report) MarshalJSON() ([]byte, error) {
	type tableJSON struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	out := struct {
		Name   string             `json:"name"`
		About  string             `json:"about"`
		Values map[string]float64 `json:"values"`
		Tables []tableJSON        `json:"tables"`
	}{Name: r.Name, About: r.About, Values: r.Values}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, tableJSON{
			Title: t.Title, Headers: t.Headers, Rows: t.Rows,
		})
	}
	return json.Marshal(out)
}
