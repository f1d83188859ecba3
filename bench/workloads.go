package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"clip"
	"clip/internal/mem"
	"clip/internal/runner"
	"clip/internal/sim"
	"clip/internal/workload"
)

// sizes scales every workload. full is what BENCHMARK.json measures; tiny is
// the bench_test.go scale (same code paths, seconds instead of minutes).
type sizes struct {
	bw1Instr, bw8Instr, meshInstr, listenInstr uint64
	meshCores                                  int
	suiteInstr, suiteWarmup                    uint64
	ckptInstr, ckptWarmup                      uint64
	ckptCycles                                 int
}

var (
	fullSizes = sizes{
		bw1Instr: 100_000, bw8Instr: 100_000, meshInstr: 8_000, listenInstr: 40_000,
		meshCores:  64,
		suiteInstr: 8_000, suiteWarmup: 8_000,
		ckptInstr: 4_000, ckptWarmup: 4_000, ckptCycles: 8,
	}
	tinySizes = sizes{
		bw1Instr: 3_000, bw8Instr: 3_000, meshInstr: 600, listenInstr: 2_000,
		meshCores:  16,
		suiteInstr: 600, suiteWarmup: 600,
		ckptInstr: 500, ckptWarmup: 500, ckptCycles: 2,
	}
)

// mem8 is one trace per core for the bandwidth points: streaming (lbm,
// bwaves, fotonik3d, roms), pointer-chasing (mcf, omnetpp) and mixed
// (cactuBSSN, xz).
var mem8 = []string{"619.lbm_s-2676B", "603.bwaves_s-1740B", "649.fotonik3d_s-1176B", "654.roms_s-1007B",
	"605.mcf_s-1554B", "607.cactuBSSN_s-2421B", "620.omnetpp_s-141B", "657.xz_s-1306B"}

// irr8 is the irregular mix of pt_listeners: dependent chases and graph
// gathers, so MLP is low and prefetch candidates are few.
var irr8 = []string{"605.mcf_s-1554B", "605.mcf_s-994B", "620.omnetpp_s-141B", "623.xalancbmk_s-10B",
	"bfs-twitter", "pr-web", "sssp-road", "cc-twitter"}

// jitter moves an instruction budget by up to a quarter percent either way.
// It is all the seed does. Each seed is then a different simulation with its
// own digest, at a cost within 0.5% of every other seed's. Feeding the seed
// to Config.Seed or to the mixes was measured and rejected: another random
// instance of the same eight traces moves pt_bw1_clip's wall time between
// 1.55 and 2.66 s, another random fig9 mix moves a suite's between 2.8 and
// 7.3 s, and under that much input variance no bound below 25% holds.
func jitter(base uint64, rng *mem.PRNG) uint64 {
	return base - base/400 + uint64(rng.Intn(int(base/200)+1))
}

// repResult is what one repetition hands back for checking and accounting.
type repResult struct {
	digest string      // sha256 of the canonical output
	instr  uint64      // simulated instructions this repetition stands for
	res    *sim.Result // the simulation result, when the repetition has exactly one
	wsErr  float64     // paper_ws_err (suites only)
}

// instance is one workload bound to a seed and a size: prepare, when set,
// does the set-up that is not a repetition (ckpt_cycle's warm-up image), rep
// runs one whole user-visible job.
type instance struct {
	cfg sim.Config // the point's config (pt_* and ckpt_cycle)
	// noskip asks the traced run to repeat the point with DisableSkip and
	// compare digests: the workloads that spend their time skipping.
	noskip  bool
	prepare func() error
	rep     func(sp *spans) (repResult, error)
	// check, when set, runs once after the repetitions with the first
	// repetition's digest (split-run equivalence for ckpt_cycle).
	check func(digest string) error
}

type workloadDef struct {
	name string
	why  string
	// minReps is the floor and maxReps the cap on timed repetitions; between
	// them the run stops once -seconds of measurement have elapsed.
	minReps, maxReps int
	build            func(seed uint64, sz sizes) *instance
}

var workloadDefs = []workloadDef{
	{"pt_bw1_clip", "8 cores on 1 DRAM channel, berti+CLIP: saturated bus, dram queues, MSHR-full paths, horizon skipping and the CLIP filter do the work",
		5, 7, buildBW1},
	{"pt_bw8_berti", "same mix on 8 channels, berti, no CLIP: cores stay busy, so cpu dispatch/retire, cache lookup/fill and prefetcher training dominate",
		5, 7, buildBW8},
	{"pt_mesh64", "64 cores, 8 channels, a 64-trace SPEC+GAP mix, berti+CLIP: the 8x8 mesh, tile/commit phases and NewSystem carry a far larger share",
		5, 7, buildMesh64},
	{"pt_listeners", "irregular mix with catch+fdp+Hermes: OnRetire/OnLoadComplete listeners force the slow retire path; criticality, throttle and hermes run",
		5, 7, buildListeners},
	{"suite_fig9_cold", "regenerate Fig 9 cold: dozens of short simulations, so NewSystem, trace decode, runner memo and report assembly matter",
		3, 5, func(seed uint64, sz sizes) *instance { return buildSuite(seed, sz, false) }},
	{"suite_fig9_warm", "the same suite with warm-once fork-many: WarmupImage + RunFromImage per point instead of re-running warm-up",
		3, 5, func(seed uint64, sz sizes) *instance { return buildSuite(seed, sz, true) }},
	{"ckpt_cycle", "8 x (NewSystem, LoadState, SaveState) of a 64-core image plus one RunFromImage: snapshot save and load do most of the work",
		5, 7, buildCkpt},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// sameDigest runs cfg untraced and fails unless its Result digests to want.
func sameDigest(cfg sim.Config, want, what string) error {
	res, err := clip.Run(cfg)
	if err != nil {
		return err
	}
	d, err := digestOf(res)
	if err != nil {
		return err
	}
	if d != want {
		return fmt.Errorf("digest %s of %s differs from the workload's %s", d, what, want)
	}
	return nil
}

func retired(res *sim.Result) uint64 {
	var n uint64
	for i := range res.CoreStats {
		n += res.CoreStats[i].Retired
	}
	return n
}

// pointInstance wraps one clip.Run configuration as a workload.
func pointInstance(cfg sim.Config) *instance {
	return &instance{
		cfg: cfg,
		rep: func(sp *spans) (repResult, error) {
			if sp != nil {
				return repResult{}, tracedPoint(cfg, sp)
			}
			res, err := clip.Run(cfg)
			if err != nil {
				return repResult{}, err
			}
			return pointResult(res)
		},
	}
}

func pointResult(res *sim.Result) (repResult, error) {
	if !res.Finished {
		return repResult{}, fmt.Errorf("simulation hit its cycle bound before every core retired its budget")
	}
	d, err := digestOf(res)
	if err != nil {
		return repResult{}, err
	}
	return repResult{digest: d, instr: retired(res), res: res}, nil
}

// tracedPoint is clip.Run taken apart into the public calls it makes, with
// a span around each. System exposes no way to collect a Result after a Step
// loop, so a traced repetition yields no digest; its counters come from the
// untraced run of the same deterministic config.
func tracedPoint(cfg sim.Config, sp *spans) error {
	rep := sp.begin("rep", -1)
	ns := sp.begin("sim.NewSystem", rep)
	s, err := sim.NewSystem(cfg)
	sp.end(ns)
	if err != nil {
		return err
	}
	st := sp.begin("sim.Step", rep)
	maxCycles := s.MaxCycles()
	for s.Step(maxCycles) {
	}
	sp.end(st)
	finished := s.Finished()
	s.Close()
	sp.end(rep)
	if !finished {
		return fmt.Errorf("traced Step loop stopped before every core finished")
	}
	return nil
}

func bwConfig(seed uint64, channels int, instr uint64) sim.Config {
	cfg := clip.DefaultConfig(8, channels, 8)
	cfg.Workload = append([]string(nil), mem8...)
	cfg.InstrPerCore = jitter(instr, mem.NewPRNG(seed))
	cfg.WarmupInstr = 0
	cfg.Prefetcher = "berti"
	return cfg
}

func buildBW1(seed uint64, sz sizes) *instance {
	cfg := bwConfig(seed, 1, sz.bw1Instr)
	cc := clip.DefaultCLIPConfig()
	cfg.CLIP = &cc
	in := pointInstance(cfg)
	in.noskip = true
	return in
}

func buildBW8(seed uint64, sz sizes) *instance {
	return pointInstance(bwConfig(seed, 8, sz.bw8Instr))
}

func meshConfig(seed uint64, cores int, instr, warmup uint64) sim.Config {
	cfg := clip.DefaultConfig(cores, 8, 8)
	cfg.Workload = workload.Heterogeneous(1, cores, 1)[0].Benchmarks
	cfg.InstrPerCore = jitter(instr, mem.NewPRNG(seed))
	cfg.WarmupInstr = warmup
	cfg.Prefetcher = "berti"
	cc := clip.DefaultCLIPConfig()
	cfg.CLIP = &cc
	return cfg
}

func buildMesh64(seed uint64, sz sizes) *instance {
	return pointInstance(meshConfig(seed, sz.meshCores, sz.meshInstr, 0))
}

func buildListeners(seed uint64, sz sizes) *instance {
	cfg := clip.DefaultConfig(8, 2, 8)
	cfg.Workload = append([]string(nil), irr8...)
	cfg.InstrPerCore = jitter(sz.listenInstr, mem.NewPRNG(seed))
	cfg.WarmupInstr = 0
	cfg.Prefetcher = "berti"
	cfg.CritPredictor = "catch"
	cfg.Throttler = "fdp"
	cfg.Hermes = true
	in := pointInstance(cfg)
	in.noskip = true
	return in
}

// Paper Fig 9 (homogeneous, 8 channels) as quoted in EXPERIMENTS.md.
const (
	paperHomBerti     = 0.84
	paperHomBertiClip = 1.08
)

func suiteScale(seed uint64, sz sizes, warmFork bool) clip.Scale {
	return clip.Scale{Cores: 8, InstrPerCore: jitter(sz.suiteInstr, mem.NewPRNG(seed)), Warmup: sz.suiteWarmup,
		CacheDiv: 8, HomMixes: 1, HetMixes: 1, Channels: []int{8}, Seed: 1,
		Workers: 1, WarmFork: warmFork}
}

// suiteInstr is the suite's nominal instruction budget: 2 mixes x (8
// variants + the no-prefetch baseline) eight-core simulations plus one
// single-core alone-IPC run per distinct benchmark, each warm-up + measured.
// Nominal, so sim_mips stays comparable if a model change moves cycle counts.
func suiteInstr(sc clip.Scale) uint64 {
	distinct := map[string]bool{"619.lbm_s-2676B": true} // HomMixes=1 is always lbm
	for _, b := range workload.Heterogeneous(1, sc.Cores, sc.Seed)[0].Benchmarks {
		distinct[b] = true
	}
	sims := uint64(2 * 9 * sc.Cores)
	return (sims + uint64(len(distinct))) * (sc.InstrPerCore + sc.Warmup)
}

func buildSuite(seed uint64, sz sizes, warmFork bool) *instance {
	sc := suiteScale(seed, sz, warmFork)
	instr := suiteInstr(sc)
	return &instance{
		rep: func(sp *spans) (repResult, error) {
			// Drop the process-wide run cache so every repetition simulates.
			// (A WarmFork engine owns a private cache; the reset is then a
			// no-op kept for symmetry.)
			runner.ResetShared()
			root := sp.begin("rep", -1)
			id := sp.begin("experiments.RunExperiment", root)
			rep, err := clip.RunExperiment("fig9", sc)
			sp.end(id)
			sp.end(root)
			if err != nil {
				return repResult{}, err
			}
			wsErr := (math.Abs(rep.Values["hom.berti"]-paperHomBerti) +
				math.Abs(rep.Values["hom.berti+clip"]-paperHomBertiClip)) / 2
			return repResult{digest: digestBytes([]byte(rep.String())), instr: instr, wsErr: wsErr}, nil
		},
	}
}

func buildCkpt(seed uint64, sz sizes) *instance {
	cfg := meshConfig(seed, sz.meshCores, sz.ckptInstr, sz.ckptWarmup)
	var image []byte
	in := &instance{cfg: cfg}
	in.prepare = func() error {
		var err error
		image, err = sim.WarmupImage(cfg)
		return err
	}
	in.rep = func(sp *spans) (repResult, error) {
		rep := sp.begin("rep", -1)
		for i := 0; i < sz.ckptCycles; i++ {
			saved, err := restoreSave(cfg, image, sp, rep)
			if err != nil {
				return repResult{}, err
			}
			if !bytes.Equal(saved, image) {
				return repResult{}, fmt.Errorf("SaveState after LoadState differs from the loaded image")
			}
		}
		id := sp.begin("sim.RunFromImage", rep)
		res, err := sim.RunFromImage(cfg, image)
		sp.end(id)
		sp.end(rep)
		if err != nil {
			return repResult{}, err
		}
		r, err := pointResult(res)
		// Nominal budget: the image stands for the warm-up it replaces.
		r.instr = uint64(cfg.Cores()) * (cfg.WarmupInstr + cfg.InstrPerCore)
		return r, err
	}
	in.check = func(digest string) error {
		return sameDigest(cfg, digest, "an uninterrupted clip.Run")
	}
	return in
}

// restoreSave is one {NewSystem, LoadState, SaveState, Close} cycle.
func restoreSave(cfg sim.Config, image []byte, sp *spans, parent int) ([]byte, error) {
	id := sp.begin("sim.NewSystem", parent)
	s, err := sim.NewSystem(cfg)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	id = sp.begin("sim.LoadState", parent)
	err = s.LoadState(image)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("sim.SaveState", parent)
	saved, err := s.SaveState()
	sp.end(id)
	return saved, err
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return names
}
