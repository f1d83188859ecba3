// Command bench is the repository's benchmark: seven workloads measured end
// to end with tracing off, and a traced mode that times calls into each
// layer's public functions. See README.md for the workloads, the metrics and
// how they interact; BENCHMARK.json at the repository root is the contract
// the driver runs it under.
//
//	go run ./bench                       every workload, end-to-end metrics
//	go run ./bench -traced               every workload, per-layer metrics
//	go run ./bench -selfcheck            the untraced suite twice, compared
//	go run ./bench -workload pt_bw1_clip -seed 3 -seconds 10 -trace 0
//
// Built with default flags: default.pgo sits in the repository root, not in
// this package's directory, so the build is not profile-guided — it measures
// what a `go run ./cmd/clipsim` user gets.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// processStart is the harness start setup_s is measured from.
var processStart = time.Now()

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	selfcheck bool
	child     bool
	setupOnly bool
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	traced := false
	flag.StringVar(&o.workload, "workload", "", "run this workload only and end with the driver's one-line JSON result")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for Config.Seed, Scale.Seed, the random mixes and each trace family's SimPoint")
	flag.Float64Var(&o.seconds, "seconds", 15, "measure each workload for about this long (repetition floors and caps still apply)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&traced, "traced", false, "same as -trace 1")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and fail if the two disagree beyond the metric bounds")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its record")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	flag.Parse()
	if traced {
		o.trace = 1
	}
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}

	if o.child {
		return runChild(o)
	}
	if o.selfcheck {
		return selfcheck(o)
	}
	if o.workload != "" {
		def, ok := lookupWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", o.workload, workloadNames())
			return 2
		}
		return runContract(def, o)
	}
	ok := true
	for _, def := range workloadDefs {
		out, err := runWorkload(def, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		out.print(os.Stdout)
		ok = ok && out.correct()
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild is the workload process: it measures in-process and prints the
// record as one JSON line.
func runChild(o options) int {
	def, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	var rec *record
	if o.trace == 1 {
		rec = measureTraced(def, o.seed, fullSizes, processStart)
		addKernels(rec, o.seconds)
	} else {
		rec = measure(def, o.seed, fullSizes, o.seconds, o.setupOnly, processStart)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs one workload in a child process of its own, so peak_rss_mb and
// the cold set-up belong to that workload alone, and waits for it to end.
func spawn(def workloadDef, o options, setupOnly bool) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", def.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace)}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	rec := &record{}
	if err := json.Unmarshal(stdout.Bytes(), rec); err != nil {
		return nil, fmt.Errorf("workload process output: %w", err)
	}
	return rec, nil
}

// outcome is one workload's run as reported: the measuring process's record
// plus the set-up times of the set-up-only trials before it.
type outcome struct {
	def     workloadDef
	rec     *record
	setups  []float64
	metrics map[string]float64
}

// runWorkload runs one workload. Traced, that is one process. Untraced, a
// set-up-only process runs beside the measuring process's own set-up — the
// two vCPUs do not slow each other by more than 2% — and has exited by the
// time the first timed repetition starts.
func runWorkload(def workloadDef, o options) (*outcome, error) {
	out := &outcome{def: def}
	var trial *record
	var trialErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if o.trace == 0 {
			trial, trialErr = spawn(def, o, true)
		}
	}()
	rec, err := spawn(def, o, false)
	<-done
	if err != nil {
		return nil, err
	}
	out.rec = rec
	out.setups = []float64{rec.SetupS}
	if o.trace == 1 {
		out.metrics = rec.Layer
		return out, nil
	}
	if trialErr != nil {
		return nil, trialErr
	}
	if trial.Failed > 0 {
		return nil, fmt.Errorf("set-up trial failed: %v", trial.Errors)
	}
	out.setups = append(out.setups, trial.SetupS)
	out.metrics = endToEndValues(rec, out.setups)
	return out, nil
}

func (out *outcome) correct() bool { return out.rec.Failed == 0 }

// runContract is the driver's entry: one workload, and as the last line of
// standard output one JSON object with correct, attempted, failed, metrics.
func runContract(def workloadDef, o options) int {
	out, err := runWorkload(def, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		return 1
	}
	out.print(os.Stdout)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer()
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct(), out.rec.Attempted, out.rec.Failed, map[string]value{}}
	for _, d := range defs {
		// A per-layer metric that does not apply to this workload (a model
		// counter on a suite, say) reads 0; README.md lists which apply.
		res.Metrics[d.name] = value{out.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// print writes the workload's metrics by name and unit, with the sample
// count and spread of those that have samples.
func (out *outcome) print(w *os.File) {
	rec := out.rec
	fmt.Fprintf(w, "== %s  seed=%d GOMAXPROCS=%d  %s\n", rec.Workload, rec.Seed, rec.GOMAXPROCS, out.def.why)
	fmt.Fprintf(w, "   digest %s\n", rec.Digest)
	fmt.Fprintf(w, "   %-28s %14.6g %-12s attempted=%d failed=%d\n", "fail_share",
		ratio(float64(rec.Failed), float64(rec.Attempted)), "ratio", rec.Attempted, rec.Failed)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	samples := map[string][]float64{"setup_s": out.setups, "wall_s": rec.WallS, "cpu_s": rec.CPUS}
	if rec.Layer == nil {
		for _, d := range endToEnd {
			printMetric(w, d, out.metrics[d.name], samples[d.name])
		}
		if rec.WSErr != 0 {
			printMetric(w, paperWSErr, rec.WSErr, nil)
			fmt.Fprintln(w, "   (paper_ws_err is a drift alarm at a scale far below the paper's, not a validation of the model)")
		}
		return
	}
	names := make([]string, 0, len(rec.Layer))
	for n := range rec.Layer {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]metricDef{}
	for _, d := range perLayer() {
		units[d.name] = d
	}
	for _, n := range names {
		printMetric(w, units[n], rec.Layer[n], nil)
	}
}

func printMetric(w *os.File, d metricDef, v float64, samples []float64) {
	fmt.Fprintf(w, "   %-28s %14.6g %-12s", d.name, v, d.unit)
	if len(samples) > 1 {
		fmt.Fprintf(w, " n=%d iqr=%.3g (%.1f%% of median)", len(samples), iqr(samples), 100*ratio(iqr(samples), median(samples)))
	}
	fmt.Fprintln(w)
}
