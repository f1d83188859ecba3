// Command clipbench measures simulator throughput and records it as JSON —
// the repo's performance trajectory — or compares a fresh measurement
// against a checked-in baseline (the CI bench-smoke job).
//
// Usage:
//
//	clipbench -out BENCH_simthroughput.json -stamp "$(date -u +%FT%TZ)"
//	clipbench -baseline BENCH_simthroughput.json -tolerance 0.25 -minspeedup 1.5
//
// It runs the same workloads as BenchmarkSimulatorThroughput,
// BenchmarkTickIdle and BenchmarkTickBusy (the configurations are shared
// through the root clip package) via testing.Benchmark, so the JSON numbers
// are directly comparable to `go test -bench` output on the same host.
//
// Besides cycles/s it records allocations and allocated bytes per op for
// every benchmark; the baseline comparison fails on growth beyond
// -maxallocgrowth / -maxbytesgrowth. Unlike cycles/s, allocs/op and bytes/op
// are host-independent and near-deterministic, so tight gates on them catch
// hot-path allocation regressions that wall-clock noise would mask.
//
// -interleave BEFORE,AFTER runs two clipbench binaries in alternating
// windows and reports the median paired cycles/s delta per benchmark: on a
// shared host whose clock rate drifts between distant windows, paired
// back-to-back runs are the only A/B comparison worth reading.
//
// Every measured benchmark must be present in the baseline: a missing entry
// fails the comparison rather than silently shrinking the gate (a renamed or
// newly added benchmark family would otherwise ride ungated until someone
// noticed).
//
// Two auxiliary outputs support the trajectory beyond the single-snapshot
// baseline: -history appends the full report as one JSON line to a .jsonl
// log (BENCH_history.jsonl in this repo), and -deltamd renders the baseline
// comparison as a markdown table (CI appends it to the GitHub step summary).
//
// -pgo-refresh regenerates the committed PGO profile instead of measuring:
// it CPU-profiles the SimulatorThroughput + TickBusy mix — the busy-loop
// shapes the build should be optimized for — and writes the pprof file
// (conventionally default.pgo). Refresh it whenever hot-path functions are
// renamed or restructured: samples attached to functions that no longer
// exist guide nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"clip"
	"clip/internal/experiments"
	"clip/internal/runner"
)

// Record holds one benchmark measurement. GOMAXPROCS stamps the host shape
// the number was produced on: cycles/s depends on it (the collector runs
// beside the simulation), so the baseline comparison only judges
// like-for-like shapes. AllocsPerOp stays host-independent and is always
// compared.
type Record struct {
	CyclesPerSec float64 `json:"cycles_per_sec"`
	NsPerOp      float64 `json:"ns_per_op"`
	Iterations   int     `json:"iterations"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op,omitempty"`
	GOMAXPROCS   int     `json:"gomaxprocs,omitempty"`
	// Slab records the flat-slab geometry NewSystem allocates for this
	// benchmark's config — the memory shape behind the number.
	Slab *clip.SlabGeometry `json:"slab_geometry,omitempty"`
}

// benchSchema versions the Report JSON (the BENCH_history.jsonl line
// format). History entries written before the field existed carry 0 and are
// read as version 1; entries with a schema newer than this binary knows are
// skipped with a warning rather than misread.
//
//	1: benchmarks + skip_speedup (schema field absent)
//	2: adds schema and the warm_fork figure-suite record
const benchSchema = 2

// Report is the BENCH_simthroughput.json schema. SkipSpeedup is the
// TickIdle skip:noskip cycles/s ratio — the headline number of the
// event-horizon fast path.
type Report struct {
	Schema      int               `json:"schema,omitempty"`
	Stamp       string            `json:"stamp,omitempty"`
	Benchmarks  map[string]Record `json:"benchmarks"`
	SkipSpeedup float64           `json:"skip_speedup"`
	// WarmFork carries the -figsuite measurement: figure-suite wall clock
	// with warmup-once-fork-many execution against cold per-variant warmup.
	WarmFork *WarmForkRecord `json:"warm_fork,omitempty"`
}

// WarmForkRecord is the paired cold/warm figure-suite measurement.
type WarmForkRecord struct {
	Experiment string  `json:"experiment"`
	Rounds     int     `json:"rounds"`
	ColdSecs   float64 `json:"cold_secs"` // median cold round
	WarmSecs   float64 `json:"warm_secs"` // median warm round
	Speedup    float64 `json:"speedup"`   // median paired cold/warm ratio
}

// benchNames lists every measured benchmark in report order.
var benchNames = []string{
	"SimulatorThroughput",
	"TickBusy/berti", "TickBusy/ipcp", "TickBusy/bingo",
	"TickBusy/spppf", "TickBusy/stride",
	"TickIdle/skip", "TickIdle/noskip",
}

func main() { os.Exit(run()) }

func run() int {
	var (
		out       = flag.String("out", "", "write the measurement JSON to this file (\"-\" = stdout)")
		baseline  = flag.String("baseline", "", "compare against this baseline JSON instead of only measuring")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional cycles/s regression vs the baseline")
		minSpeed  = flag.Float64("minspeedup", 0, "fail unless TickIdle skip/noskip speedup is at least this (0 = no check)")
		maxAlloc  = flag.Float64("maxallocgrowth", 0.10, "allowed fractional allocs/op growth vs the baseline (0 = no check)")
		maxBytes  = flag.Float64("maxbytesgrowth", 0.10, "allowed fractional bytes/op growth vs the baseline (0 = no check; baselines predating bytes/op pass)")
		stamp     = flag.String("stamp", "", "timestamp to embed in the JSON (explicit input, kept out of comparisons)")
		history   = flag.String("history", "", "append this run's report as one JSON line to this file")
		deltaMD   = flag.String("deltamd", "", "with -baseline: append a markdown before/after table to this file (\"-\" = stdout)")
		pgoOut    = flag.String("pgo-refresh", "", "profile the benchmark mix and write a PGO pprof file here instead of measuring")
		pgoSecs   = flag.Float64("pgo-seconds", 15, "minimum profiling duration for -pgo-refresh")
		ileave    = flag.String("interleave", "", "BEFORE,AFTER: paths to two clipbench binaries; run them in alternating windows and report paired per-round deltas instead of measuring in-process")
		rounds    = flag.Int("rounds", 3, "with -interleave or -figsuite: number of paired rounds")
		figsuite  = flag.String("figsuite", "", "experiment name (e.g. fig9): measure its figure suite warm-fork vs cold in paired alternating rounds instead of the benchmark set")
		minWarm   = flag.Float64("minwarmfork", 0, "with -figsuite: fail unless the median warm-fork speedup is at least this (0 = no check)")
	)
	flag.Parse()
	if *pgoOut != "" {
		return refreshPGO(*pgoOut, *pgoSecs)
	}
	if *ileave != "" {
		return runInterleave(*ileave, *rounds)
	}
	if *figsuite != "" {
		return runFigSuite(*figsuite, *rounds, *minWarm, *history, *stamp)
	}
	if *out == "" && *baseline == "" {
		*out = "-"
	}

	measure := func(cfg clip.Config) Record {
		var cycles uint64
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			cycles = 0
			for i := 0; i < b.N; i++ {
				r, err := clip.Run(cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				cycles += r.Cycles
			}
		})
		rec := Record{
			CyclesPerSec: float64(cycles) / res.T.Seconds(),
			NsPerOp:      float64(res.NsPerOp()),
			Iterations:   res.N,
			AllocsPerOp:  res.AllocsPerOp(),
			BytesPerOp:   res.AllocedBytesPerOp(),
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
		}
		if g, err := clip.BenchSlabGeometry(cfg); err == nil {
			rec.Slab = &g
		}
		return rec
	}

	configFor := func(name string) clip.Config {
		switch name {
		case "SimulatorThroughput":
			return clip.BenchThroughputConfig()
		case "TickIdle/skip":
			return clip.BenchTickIdleConfig(false)
		case "TickIdle/noskip":
			return clip.BenchTickIdleConfig(true)
		default: // "TickBusy/<prefetcher>"
			return clip.BenchTickBusyConfig(name[len("TickBusy/"):])
		}
	}

	rep := Report{Schema: benchSchema, Stamp: *stamp, Benchmarks: map[string]Record{}}
	for _, name := range benchNames {
		rep.Benchmarks[name] = measure(configFor(name))
	}
	rep.SkipSpeedup = rep.Benchmarks["TickIdle/skip"].CyclesPerSec /
		rep.Benchmarks["TickIdle/noskip"].CyclesPerSec

	for _, name := range benchNames {
		r := rep.Benchmarks[name]
		fmt.Fprintf(os.Stderr, "%-22s %12.0f cycles/s  (%d iters, %.1fms/op, %d allocs/op)\n",
			name, r.CyclesPerSec, r.Iterations, r.NsPerOp/1e6, r.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "%-22s %12.2fx\n", "skip speedup", rep.SkipSpeedup)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	if *history != "" {
		if err := appendHistory(*history, &rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	failed := false
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *baseline, err)
			return 2
		}
		if *deltaMD != "" {
			if err := writeDeltaMD(*deltaMD, &base, &rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
		for _, name := range benchNames {
			b, ok := base.Benchmarks[name]
			if !ok {
				// A missing entry means the baseline predates this benchmark
				// (or the family was renamed): the gate would silently shrink.
				// Regenerate the baseline with -out instead.
				fmt.Fprintf(os.Stderr, "%-22s MISSING from baseline %s — regenerate it\n", name, *baseline)
				failed = true
				continue
			}
			got := rep.Benchmarks[name]
			// cycles/s is only meaningful like-for-like: a baseline recorded
			// on a different host shape (core count) says nothing about a
			// regression here. Records predating the GOMAXPROCS stamp compare as
			// before; allocs/op stays gated regardless of shape.
			sameShape := b.GOMAXPROCS == 0 || b.GOMAXPROCS == got.GOMAXPROCS
			if !sameShape {
				fmt.Fprintf(os.Stderr, "%-22s cycles/s not compared: baseline host had GOMAXPROCS=%d, this host %d\n",
					name, b.GOMAXPROCS, got.GOMAXPROCS)
			}
			if b.CyclesPerSec > 0 && sameShape {
				floor := b.CyclesPerSec * (1 - *tolerance)
				verdict := "ok"
				if got.CyclesPerSec < floor {
					verdict = "REGRESSION"
					failed = true
				}
				fmt.Fprintf(os.Stderr, "%-22s %12.0f vs baseline %12.0f (floor %12.0f) %s\n",
					name, got.CyclesPerSec, b.CyclesPerSec, floor, verdict)
			}
			if *maxAlloc > 0 && b.AllocsPerOp > 0 {
				ceiling := float64(b.AllocsPerOp) * (1 + *maxAlloc)
				verdict := "ok"
				if float64(got.AllocsPerOp) > ceiling {
					verdict = "ALLOC REGRESSION"
					failed = true
				}
				fmt.Fprintf(os.Stderr, "%-22s %8d allocs/op vs baseline %8d (ceiling %8.0f) %s\n",
					name, got.AllocsPerOp, b.AllocsPerOp, ceiling, verdict)
			}
			// bytes/op is gated like allocs/op: host-independent and near-
			// deterministic, so growth means the hot path genuinely allocates
			// more. Baselines recorded before the field existed carry zero and
			// are skipped rather than failed.
			if *maxBytes > 0 && b.BytesPerOp > 0 {
				ceiling := float64(b.BytesPerOp) * (1 + *maxBytes)
				verdict := "ok"
				if float64(got.BytesPerOp) > ceiling {
					verdict = "BYTES REGRESSION"
					failed = true
				}
				fmt.Fprintf(os.Stderr, "%-22s %8d bytes/op vs baseline %8d (ceiling %8.0f) %s\n",
					name, got.BytesPerOp, b.BytesPerOp, ceiling, verdict)
			}
		}
	}
	if *minSpeed > 0 && rep.SkipSpeedup < *minSpeed {
		fmt.Fprintf(os.Stderr, "skip speedup %.2fx below required %.2fx\n",
			rep.SkipSpeedup, *minSpeed)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// appendHistory adds one compact JSON line for this run to the .jsonl
// trajectory log and prints a short trend over the readable entries. The
// log is append-only: successive runs on the same host give the performance
// trend that the single-snapshot baseline cannot. Lines carrying a schema
// version this binary does not know (newer than benchSchema) are skipped
// with a warning instead of being misread into the current layout; a
// missing schema field reads as version 1, the pre-versioning format.
func appendHistory(path string, rep *Report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	summarizeHistory(path)
	return nil
}

// summarizeHistory reads the trajectory log back and prints one trend line
// per readable entry (best effort: an unreadable log is not an error).
func summarizeHistory(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	fmt.Fprintf(os.Stderr, "history %s (%d entries):\n", path, len(lines))
	for i, ln := range lines {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		var e Report
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			fmt.Fprintf(os.Stderr, "  [%d] skipping unparseable entry: %v\n", i+1, err)
			continue
		}
		if e.Schema > benchSchema {
			fmt.Fprintf(os.Stderr, "  [%d] skipping entry with schema %d (this binary knows up to %d — rebuild clipbench to read it)\n",
				i+1, e.Schema, benchSchema)
			continue
		}
		trend := fmt.Sprintf("skip %.2fx", e.SkipSpeedup)
		if t, ok := e.Benchmarks["SimulatorThroughput"]; ok {
			trend = fmt.Sprintf("%.0f cycles/s, %s", t.CyclesPerSec, trend)
		}
		if e.WarmFork != nil {
			trend += fmt.Sprintf(", warm-fork %s %.2fx", e.WarmFork.Experiment, e.WarmFork.Speedup)
		}
		fmt.Fprintf(os.Stderr, "  [%d] %-22s %s\n", i+1, e.Stamp, trend)
	}
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// runFigSuite measures the warmup-once-fork-many win on a real figure
// suite: the named experiment runs in paired alternating rounds — cold
// (every variant re-runs its warmup in process) then warm-fork (all
// variants of a figure point fork from one checkpointed warmup image) —
// and the reported speedup is the median paired cold/warm wall-clock
// ratio, so slow host-clock drift cancels exactly as in -interleave.
//
// The scale is the quick figure scale with a warmup-heavy budget (3:1
// warmup:measurement): warm-fork's win is the warmup fraction of every
// variant run, and at paper scale — hundreds of millions of warmup
// instructions per point — that fraction dominates. The run cache is reset
// between rounds so neither side coasts on memoized results.
func runFigSuite(name string, rounds int, minSpeedup float64, history, stamp string) int {
	e, err := experiments.Lookup(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if rounds < 1 {
		fmt.Fprintln(os.Stderr, "-figsuite wants -rounds >= 1")
		return 2
	}
	sc := experiments.Quick()
	sc.InstrPerCore = 8000
	sc.Warmup = 24000
	cold, warm := sc, sc
	warm.WarmFork = true

	run := func(sc experiments.Scale) (string, float64, error) {
		runner.ResetShared()
		t0 := time.Now()
		rep, err := e.Run(sc)
		if err != nil {
			return "", 0, err
		}
		return rep.String(), time.Since(t0).Seconds(), nil
	}

	var ratios, coldSecs, warmSecs []float64
	var coldOut, warmOut string
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(os.Stderr, "== round %d/%d: COLD %s\n", r+1, rounds, name)
		cOut, cs, err := run(cold)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "== round %d/%d: WARM %s\n", r+1, rounds, name)
		wOut, ws, err := run(warm)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// Both protocols are deterministic; a report that changes between
		// rounds means the checkpoint path leaked state.
		if r == 0 {
			coldOut, warmOut = cOut, wOut
		} else if cOut != coldOut || wOut != warmOut {
			fmt.Fprintln(os.Stderr, "figure reports differ between rounds — nondeterministic run")
			return 1
		}
		coldSecs, warmSecs = append(coldSecs, cs), append(warmSecs, ws)
		ratios = append(ratios, cs/ws)
		fmt.Fprintf(os.Stderr, "   cold %.2fs  warm %.2fs  ratio %.2fx\n", cs, ws, cs/ws)
	}

	rec := &WarmForkRecord{
		Experiment: name, Rounds: rounds,
		ColdSecs: median(coldSecs), WarmSecs: median(warmSecs),
		Speedup: median(ratios),
	}
	fmt.Printf("warm-fork %s: median %.2fx (cold %.2fs, warm %.2fs over %d rounds)\n",
		name, rec.Speedup, rec.ColdSecs, rec.WarmSecs, rounds)

	if history != "" {
		rep := Report{Schema: benchSchema, Stamp: stamp,
			Benchmarks: map[string]Record{}, WarmFork: rec}
		if err := appendHistory(history, &rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if minSpeedup > 0 && rec.Speedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "warm-fork speedup %.2fx below required %.2fx\n",
			rec.Speedup, minSpeedup)
		return 1
	}
	return 0
}

// writeDeltaMD renders the baseline comparison as a markdown table and
// appends it to path ("-" = stdout). CI points this at the GitHub step
// summary so a bench-smoke run publishes its before/after deltas next to
// the pass/fail verdict.
func writeDeltaMD(path string, base, rep *Report) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(w, "### Benchmark delta vs baseline\n\n")
	fmt.Fprintf(w, "| benchmark | baseline cycles/s | now cycles/s | Δ | baseline allocs/op | now allocs/op | Δ |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|---:|\n")
	pct := func(now, was float64) string {
		if was <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(now-was)/was)
	}
	for _, name := range benchNames {
		got := rep.Benchmarks[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "| `%s` | missing | %.0f | n/a | missing | %d | n/a |\n",
				name, got.CyclesPerSec, got.AllocsPerOp)
			continue
		}
		cyclesDelta := pct(got.CyclesPerSec, b.CyclesPerSec)
		if b.GOMAXPROCS != 0 && b.GOMAXPROCS != got.GOMAXPROCS {
			// Different host shape: cycles/s is not comparable (the parallel
			// benchmarks scale with cores by design); allocs/op still is.
			cyclesDelta = fmt.Sprintf("shape differs (P=%d vs %d)", b.GOMAXPROCS, got.GOMAXPROCS)
		}
		fmt.Fprintf(w, "| `%s` | %.0f | %.0f | %s | %d | %d | %s |\n",
			name, b.CyclesPerSec, got.CyclesPerSec, cyclesDelta,
			b.AllocsPerOp, got.AllocsPerOp,
			pct(float64(got.AllocsPerOp), float64(b.AllocsPerOp)))
	}
	fmt.Fprintf(w, "\nskip speedup: %.2fx (baseline %.2fx)\n\n", rep.SkipSpeedup, base.SkipSpeedup)
	return nil
}

// runInterleave drives two clipbench binaries — BEFORE and AFTER builds of
// the simulator — in alternating windows: B0 A0 B1 A1 ... Each pair runs
// back-to-back, so the slow clock drift of a shared host (this repo's bench
// hosts drift ~2x between distant windows) cancels out of the per-round
// ratio; a single before-run followed by a single after-run would fold the
// whole drift into the "speedup". The reported number per benchmark is the
// median across rounds of the paired AFTER/BEFORE cycles/s ratio, plus the
// host-independent allocs/op and bytes/op from the final round.
func runInterleave(spec string, rounds int) int {
	before, after, ok := strings.Cut(spec, ",")
	if !ok || before == "" || after == "" || rounds < 1 {
		fmt.Fprintln(os.Stderr, "-interleave wants BEFORE,AFTER binary paths and -rounds >= 1")
		return 2
	}
	exec1 := func(bin string) (*Report, error) {
		cmd := exec.Command(bin, "-out", "-")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bin, err)
		}
		var rep Report
		if err := json.Unmarshal(out, &rep); err != nil {
			return nil, fmt.Errorf("%s: parsing report: %w", bin, err)
		}
		return &rep, nil
	}
	repsB := make([]*Report, 0, rounds)
	repsA := make([]*Report, 0, rounds)
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(os.Stderr, "== round %d/%d: BEFORE %s\n", r+1, rounds, before)
		rb, err := exec1(before)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "== round %d/%d: AFTER  %s\n", r+1, rounds, after)
		ra, err := exec1(after)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		repsB, repsA = append(repsB, rb), append(repsA, ra)
	}
	fmt.Printf("%-22s %9s  %s\n", "benchmark", "median Δ", "per-round AFTER/BEFORE")
	for _, name := range benchNames {
		var ratios []float64
		perRound := ""
		for r := 0; r < rounds; r++ {
			b, okB := repsB[r].Benchmarks[name]
			a, okA := repsA[r].Benchmarks[name]
			if !okB || !okA || b.CyclesPerSec <= 0 {
				continue
			}
			ratio := a.CyclesPerSec / b.CyclesPerSec
			ratios = append(ratios, ratio)
			perRound += fmt.Sprintf(" %.3f", ratio)
		}
		if len(ratios) == 0 {
			fmt.Printf("%-22s %9s  (missing from one side)\n", name, "n/a")
			continue
		}
		fmt.Printf("%-22s %+8.1f%% %s\n", name, 100*(median(ratios)-1), perRound)
	}
	lastB, lastA := repsB[rounds-1], repsA[rounds-1]
	fmt.Printf("\n%-22s %14s %14s   %14s %14s\n", "benchmark",
		"allocs before", "allocs after", "bytes before", "bytes after")
	for _, name := range benchNames {
		b, okB := lastB.Benchmarks[name]
		a, okA := lastA.Benchmarks[name]
		if !okB || !okA {
			continue
		}
		fmt.Printf("%-22s %14d %14d   %14d %14d\n", name,
			b.AllocsPerOp, a.AllocsPerOp, b.BytesPerOp, a.BytesPerOp)
	}
	return 0
}

// refreshPGO CPU-profiles the busy-loop benchmark mix (SimulatorThroughput
// plus every TickBusy prefetcher) for at least secs seconds and writes the
// profile to path — the input for -pgo builds. The idle benchmarks are
// deliberately absent: their time is spent in the skipping fast path, which
// PGO inlining decisions do not help.
func refreshPGO(path string, secs float64) int {
	mix := []clip.Config{clip.BenchThroughputConfig()}
	for _, name := range benchNames {
		const pfx = "TickBusy/"
		if len(name) > len(pfx) && name[:len(pfx)] == pfx {
			mix = append(mix, clip.BenchTickBusyConfig(name[len(pfx):]))
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	start := time.Now()
	runs := 0
	for time.Since(start).Seconds() < secs {
		for _, cfg := range mix {
			if _, err := clip.Run(cfg); err != nil {
				pprof.StopCPUProfile()
				f.Close()
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			runs++
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d runs of the %d-config busy mix over %.1fs\n",
		path, runs, len(mix), time.Since(start).Seconds())
	return 0
}
