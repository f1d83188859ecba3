// Command clipsim runs the paper-reproduction experiments from the command
// line.
//
// Usage:
//
//	clipsim -list
//	clipsim -experiment fig9
//	clipsim -experiment fig9,fig16,table2 -json
//	clipsim -experiment all -cores 8 -instructions 30000 -hom 8 -het 5
//	clipsim -experiment fig1 -channels 4,8,16,32,64 -full
//	clipsim -experiment fig9 -workers 1 -cpuprofile cpu.out -memprofile mem.out
//
// Each experiment prints the same rows/series the corresponding paper figure
// or table reports, at the configured scale; with -json the reports are
// written instead as one indented JSON array. Independent simulations within
// one experiment run concurrently across -workers goroutines. Stdout is
// byte-identical for any worker count and either -skip mode: the time each
// experiment took goes to stderr.
//
// The -checkpoint mode exercises deterministic save/restore of a single
// simulation across process boundaries (the restore-into-fresh-process arm
// of the equivalence matrix):
//
//	clipsim -checkpoint run  -workload 619.lbm_s-2676B -prefetcher berti -clip   # straight run, result JSON on stdout
//	clipsim -checkpoint save -checkpoint-file warm.clps -workload 619.lbm_s-2676B -prefetcher berti -clip
//	clipsim -checkpoint load -checkpoint-file warm.clps -workload 619.lbm_s-2676B -prefetcher berti -clip
//
// "save" runs the warmup phase and writes the image; "load" — typically in a
// different process — restores it and finishes the run. The result JSON that
// "load" prints is byte-identical to what "run" prints for the same flags.
// With -v, "run" and "load" also print what the simulation loop itself did —
// ticks, jumps, wakes, DRAM schedule attempts, mesh link visits — on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"clip/internal/core"
	"clip/internal/experiments"
	"clip/internal/sim"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		exp      = flag.String("experiment", "", "comma-separated experiments to run (or \"all\")")
		asJSON   = flag.Bool("json", false, "with -experiment: write the reports as a JSON array")
		full     = flag.Bool("full", false, "use the full scale (all 45 hom + 200 het mixes; slow)")
		cores    = flag.Int("cores", 0, "override simulated cores")
		instr    = flag.Uint64("instructions", 0, "override instructions per core")
		warmup   = flag.Uint64("warmup", 0, "override warmup instructions per core")
		hom      = flag.Int("hom", 0, "override homogeneous mix count (0 = scale default)")
		het      = flag.Int("het", 0, "override heterogeneous mix count")
		cloud    = flag.Int("cloud", 0, "override CloudSuite/CVP mix count")
		channels = flag.String("channels", "", "comma-separated paper channel counts (e.g. 4,8,16)")
		seed     = flag.Uint64("seed", 0, "override workload seed")
		workers  = flag.Int("workers", 0, "concurrent simulations per experiment (0 = GOMAXPROCS); results are identical for any value")
		skipMode = flag.String("skip", "on", "event-horizon cycle skipping: on|off; results are identical for either value")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		verbose  = flag.Bool("v", false, "with -checkpoint run|load: print the simulation loop's own counters (sim.SelfStats) on stderr")

		checkpoint = flag.String("checkpoint", "", "single-simulation checkpoint mode: run|save|load (see package docs)")
		ckptFile   = flag.String("checkpoint-file", "", "image path for -checkpoint save/load")
		ckptWl     = flag.String("workload", "619.lbm_s-2676B", "with -checkpoint: homogeneous workload trace")
		ckptPf     = flag.String("prefetcher", "berti", "with -checkpoint: prefetcher name")
		ckptCLIP   = flag.Bool("clip", false, "with -checkpoint: attach CLIP filtering")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}()
	}

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q (select an experiment with -experiment <name>)\n", flag.Arg(0))
		return 2
	}
	var noskip bool
	switch *skipMode {
	case "on":
	case "off":
		noskip = true
	default:
		fmt.Fprintf(os.Stderr, "bad -skip value %q (want on or off)\n", *skipMode)
		return 2
	}

	if *checkpoint != "" {
		return runCheckpoint(*checkpoint, *ckptFile, ckptConfig{
			workload: *ckptWl, prefetcher: *ckptPf, clip: *ckptCLIP,
			cores: *cores, instr: *instr, warmup: *warmup, seed: *seed,
			noskip: noskip, verbose: *verbose,
		})
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-20s %s\n", e.Name, e.About)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with -experiment <name> (or \"all\")")
		}
		return 0
	}

	sc := experiments.Quick()
	if *full {
		sc = experiments.Full()
	}
	if *cores > 0 {
		sc.Cores = *cores
	}
	if *instr > 0 {
		sc.InstrPerCore = *instr
	}
	if *warmup > 0 {
		sc.Warmup = *warmup
	}
	if *hom > 0 {
		sc.HomMixes = *hom
	}
	if *het > 0 {
		sc.HetMixes = *het
	}
	if *cloud > 0 {
		sc.CloudMixes = *cloud
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers
	sc.NoSkip = noskip
	if *channels != "" {
		var chs []int
		for _, part := range strings.Split(*channels, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "bad channel count %q\n", part)
				return 2
			}
			chs = append(chs, v)
		}
		sc.Channels = chs
	}

	var entries []experiments.Entry
	if *exp == "all" {
		entries = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.Lookup(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			entries = append(entries, e)
		}
	}

	var reports []*experiments.Report
	for _, e := range entries {
		t0 := time.Now()
		rep, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", e.Name, time.Since(t0).Seconds())
		if *asJSON {
			reports = append(reports, rep)
		} else {
			fmt.Printf("%s\n\n", rep)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// ckptConfig carries the flag overrides for the single-simulation
// checkpoint mode.
type ckptConfig struct {
	workload, prefetcher string
	clip                 bool
	cores                int
	instr, warmup, seed  uint64
	noskip               bool
	verbose              bool
}

// build resolves the flags into a sim.Config (defaults mirror the
// equivalence-matrix base: small system, slow bus, real warmup phase).
func (c ckptConfig) build() sim.Config {
	cores := c.cores
	if cores <= 0 {
		cores = 4
	}
	cfg := sim.DefaultConfig(cores, 1, 8)
	for i := range cfg.Workload {
		cfg.Workload[i] = c.workload
	}
	cfg.InstrPerCore = 4000
	if c.instr > 0 {
		cfg.InstrPerCore = c.instr
	}
	cfg.WarmupInstr = 1000
	if c.warmup > 0 {
		cfg.WarmupInstr = c.warmup
	}
	cfg.TransferCycles = 40
	cfg.Prefetcher = c.prefetcher
	if c.seed != 0 {
		cfg.Seed = c.seed
	}
	cfg.DisableSkip = c.noskip
	if c.clip {
		cc := core.DefaultConfig()
		cfg.CLIP = &cc
	}
	return cfg
}

// runCheckpoint is the -checkpoint dispatcher: "run" executes straight
// through, "save" writes the warmup image, "load" restores it (typically in
// a fresh process) and finishes. "run" and "load" print the result as
// canonical JSON on stdout, which must be byte-identical between the two.
func runCheckpoint(mode, file string, c ckptConfig) int {
	cfg := c.build()
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "checkpoint %s: %v\n", mode, err)
		return 1
	}
	emit := func(res *sim.Result, self sim.SelfStats) int {
		if c.verbose {
			printSelf(self)
		}
		data, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(append(data, '\n'))
		return 0
	}
	switch mode {
	case "run":
		res, self, err := sim.RunSelf(cfg, nil, false)
		if err != nil {
			return fail(err)
		}
		return emit(res, self)
	case "save":
		if file == "" {
			return fail(fmt.Errorf("-checkpoint-file is required"))
		}
		image, err := sim.WarmupImage(cfg)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(file, image, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", file, len(image))
		return 0
	case "load":
		if file == "" {
			return fail(fmt.Errorf("-checkpoint-file is required"))
		}
		image, err := os.ReadFile(file)
		if err != nil {
			return fail(err)
		}
		res, self, err := sim.RunSelf(cfg, image, true)
		if err != nil {
			return fail(err)
		}
		return emit(res, self)
	default:
		fmt.Fprintf(os.Stderr, "bad -checkpoint mode %q (want run, save or load)\n", mode)
		return 2
	}
}

// printSelf writes the simulation loop's own counters to stderr, one group
// per line.
func printSelf(st sim.SelfStats) {
	w := os.Stderr
	fmt.Fprintf(w, "ticks %d, cycles skipped %d in %d jumps\n", st.Ticks, st.CyclesSkipped, st.GlobalSkips)
	fmt.Fprintf(w, "tile visits %d (%d ticked the core), slice visits %d\n", st.TileVisits, st.TileVisitsCoreTicked, st.SliceVisits)
	for src := sim.WakeSource(0); src < sim.NumWakeSources; src++ {
		fmt.Fprintf(w, "wakes by %s: %d, slice asleep again after one visit: %d\n", src, st.Wakes[src], st.SliceResleeps[src])
	}
	fmt.Fprintf(w, "slices re-parked without a visit: %d\n", st.Reparks)
	fmt.Fprintf(w, "direct-DRAM heads offered %d, parked on a full queue %d\n", st.DirectIssues, st.DirectParks)
	fmt.Fprintf(w, "dram schedule attempts: read %d (%d futile), write %d (%d futile)\n",
		st.DRAM.ReadAttempts, st.DRAM.ReadFutile, st.DRAM.WriteAttempts, st.DRAM.WriteFutile)
	fmt.Fprintf(w, "mesh link visits %d for %d grants and %d completions\n", st.Links.Visits, st.Links.Grants, st.Links.Completions)
	fmt.Fprintf(w, "dram responses delivered %d, queue entries examined %d\n", st.DueDelivered, st.DueTouched)
}
