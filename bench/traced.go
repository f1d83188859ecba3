package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// spanDefs are the metrics derived from spans recorded around the calls
// bench/ makes into sim and snapshot, per workload.
var spanDefs = []metricDef{
	{name: "sim.newsystem_share", unit: "ratio", lowerGood: true},
	{name: "sim.step_share", unit: "ratio", lowerGood: true},
	{name: "sim.step_ns_per_cycle", unit: "ns", lowerGood: true},
	{name: "sim.step_ns_per_instr", unit: "ns", lowerGood: true},
	{name: "sim.steady_allocs_per_kcycle", unit: "count", lowerGood: true},
	{name: "snapshot.save_share", unit: "ratio", lowerGood: true},
	{name: "snapshot.load_share", unit: "ratio", lowerGood: true},
	{name: "trace_overhead_rel", unit: "ratio", lowerGood: true},
}

// paperWSErr is exact and simulated; it is reported with the untraced run
// and listed with the per-layer metrics because it exists for suites only.
var paperWSErr = metricDef{name: "paper_ws_err", unit: "norm-WS", lowerGood: true}

// perLayer lists every metric of a traced run: spans, layer kernels, model
// counters and paper_ws_err.
func perLayer() []metricDef {
	defs := append([]metricDef{}, spanDefs...)
	for _, k := range allKernels() {
		defs = append(defs, k.def)
	}
	defs = append(defs, counterDefs...)
	return append(defs, paperWSErr)
}

// kernelBudget is the time one layer kernel measures for, all samples
// together: 0.3 s at the default -seconds, less when the driver asks for a
// shorter run (the 45 kernels must fit in a run beside the repetitions).
func kernelBudget(seconds float64) time.Duration {
	return time.Duration(min(0.3, seconds*0.02) * float64(time.Second))
}

// measureTraced is the life of a workload process with tracing on, up to the
// layer kernels: set-up, then pairs of one untraced and one traced
// repetition (their difference is the tracing overhead) and the skip/noskip
// check.
func measureTraced(def workloadDef, seed uint64, sz sizes, start time.Time) *record {
	rec := &record{Workload: def.name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Layer: map[string]float64{}}
	in, warm, err := setUp(def, seed, sz, start, rec)
	if err != nil {
		rec.Attempted = 1
		rec.fail("%v", err)
		return rec
	}
	sp := newSpans()
	for pairs := max(1, def.minReps/2); pairs > 0; pairs-- {
		timedRep(in, rec)
		rec.Attempted++
		if _, err := in.rep(sp); err != nil {
			rec.fail("traced repetition: %v", err)
		}
	}
	rec.Spans = sp.list
	spanMetrics(sp, rec, warm)
	if warm.res != nil {
		for k, v := range counters(warm.res) {
			rec.Layer[k] = v
		}
	}
	if warm.wsErr != 0 {
		rec.Layer[paperWSErr.name] = warm.wsErr
	}

	if in.noskip {
		cfg := in.cfg
		cfg.DisableSkip = true
		rec.Attempted++
		if err := sameDigest(cfg, rec.Digest, "the DisableSkip run"); err != nil {
			rec.fail("%v", err)
		}
	}
	rec.PeakRSSMB = peakRSSMB()
	return rec
}

// addKernels runs the layer kernels, once per traced run, into rec.Layer.
func addKernels(rec *record, seconds float64) {
	rec.Attempted++
	env, err := newKernelEnv(rec.Seed, kernelBudget(seconds)/kernelSamples)
	if err == nil {
		_, err = runKernels(env, rec.Layer)
	}
	if err != nil {
		rec.fail("%v", err)
	}
}

// spanMetrics turns the recorded spans into the spanDefs metrics. A share is
// a span name's summed duration over the summed duration of the repetitions.
func spanMetrics(sp *spans, rec *record, warm repResult) {
	byName, rootNs := sp.totals()
	for metric, name := range map[string]string{
		"sim.newsystem_share": "sim.NewSystem", "sim.step_share": "sim.Step",
		"snapshot.save_share": "sim.SaveState", "snapshot.load_share": "sim.LoadState",
	} {
		if s, ok := byName[name]; ok {
			rec.Layer[metric] = ratio(float64(s.EndNs), float64(rootNs))
		}
	}
	if step, ok := byName["sim.Step"]; ok && warm.res != nil {
		reps := float64(sp.reps)
		rec.Layer["sim.step_ns_per_cycle"] = ratio(float64(step.EndNs), reps*float64(warm.res.Cycles))
		rec.Layer["sim.step_ns_per_instr"] = ratio(float64(step.EndNs), reps*float64(warm.instr))
		rec.Layer["sim.steady_allocs_per_kcycle"] = ratio(float64(step.Mallocs), reps*float64(warm.res.Cycles)/1000)
	}
	var traced []float64
	for i := range sp.list {
		if sp.list[i].Parent < 0 {
			traced = append(traced, float64(sp.list[i].dur())/1e9)
		}
	}
	if w := median(rec.WallS); w > 0 {
		rec.Layer["trace_overhead_rel"] = median(traced)/w - 1
	}
}

// selfcheck runs the untraced suite twice back to back and fails if an
// end-to-end metric differs by more than its own bound, or an exact output
// (digest, paper_ws_err, simulated instructions) differs at all.
func selfcheck(o options) int {
	o.trace = 0
	ok := true
	for _, def := range workloadDefs {
		var runs [2]*outcome
		for i := range runs {
			out, err := runWorkload(def, o)
			if err != nil {
				fmt.Printf("%s: %v\n", def.name, err)
				return 1
			}
			out.print(os.Stdout)
			ok = ok && out.correct()
			runs[i] = out
		}
		a, b := runs[0], runs[1]
		fmt.Printf("-- selfcheck %s\n", def.name)
		for _, d := range endToEnd {
			va, vb := a.metrics[d.name], b.metrics[d.name]
			worse := ratio(vb-va, va)
			if !d.lowerGood {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > d.bound {
				verdict, ok = "DIFFERS BEYOND BOUND", false
			}
			fmt.Printf("   %-20s %12.6g %12.6g  second is %+.2f%% worse (bound %.0f%%)  %s\n",
				d.name, va, vb, 100*worse, 100*d.bound, verdict)
		}
		if a.rec.Digest != b.rec.Digest || a.rec.WSErr != b.rec.WSErr || a.rec.Instr != b.rec.Instr {
			fmt.Printf("   exact outputs differ: digest %s vs %s, paper_ws_err %v vs %v, instr %d vs %d\n",
				a.rec.Digest, b.rec.Digest, a.rec.WSErr, b.rec.WSErr, a.rec.Instr, b.rec.Instr)
			ok = false
		} else {
			fmt.Printf("   exact outputs agree: digest, paper_ws_err, simulated instructions\n")
		}
	}
	if !ok {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
