package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// Every workload at the tiny scale: no repetition fails, every repetition
// reproduces the first one's digest, every end-to-end metric comes out
// positive, and another seed gives other inputs.
func TestWorkloadsTinyScale(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			rec := measure(def, 1, tinySizes, 0, false, time.Now())
			if rec.Failed != 0 {
				t.Fatalf("fail_share = %d/%d: %v", rec.Failed, rec.Attempted, rec.Errors)
			}
			if rec.Attempted != def.minReps || len(rec.WallS) != def.minReps {
				t.Fatalf("attempted %d repetitions, %d timed, want %d", rec.Attempted, len(rec.WallS), def.minReps)
			}
			if rec.Digest == "" || rec.Instr == 0 {
				t.Fatalf("digest %q, instr %d", rec.Digest, rec.Instr)
			}
			vals := endToEndValues(rec, []float64{rec.SetupS})
			for _, d := range endToEnd {
				if v := vals[d.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
			other := &record{}
			if _, _, err := setUp(def, 2, tinySizes, time.Now(), other); err != nil {
				t.Fatal(err)
			}
			if other.Digest == rec.Digest {
				t.Errorf("seed 2 reproduced seed 1's digest %s: the seed does not reach the inputs", other.Digest)
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the metric tables in this package name the same
// workloads and metrics with the same units and bounds. fail_share is the
// one reported number with no entry: the contract carries it as the result
// line's failed/attempted pair (and a metric may never read 0).
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloadDefs", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if def := workloadDefs[i]; w.Name != def.name || w.Why != def.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloadDefs has %q (%q)", i, w.Name, w.Why, def.name, def.why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in this package", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], this package has %s [%s]", kind, i, g.Name, g.Unit, w.name, w.unit)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %s [%s]: bad or repeated name or unit", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if better := map[bool]string{true: "lower", false: "higher"}[w.lowerGood]; g.Better != better {
				t.Errorf("%s %s: better %q, want %q", kind, g.Name, g.Better, better)
			}
			if bounded {
				if g.Bound == nil || *g.Bound != w.bound || *g.Bound > 0.25 {
					t.Errorf("%s %s: bound %v, want %v", kind, g.Name, g.Bound, w.bound)
				}
			} else if g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer(), false)
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(bj.PerLayer))
	}
}

// Every layer kernel drives a non-zero operation count and reports a
// positive finite number: a kernel whose stub port never fills would
// otherwise time an empty loop.
func TestKernelsDriveOperations(t *testing.T) {
	env, err := newKernelEnv(1, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	ops, err := runKernels(env, vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range allKernels() {
		v, n := vals[k.def.name], ops[k.def.name]
		if n == 0 || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v over %d operations", k.def.name, v, n)
		}
	}
}

// A traced run at the tiny scale: no failures, the skip/noskip digests
// match, every span lies inside its parent, and within each repetition the
// self times add up to the repetition's span within 1%.
func TestTracedSpans(t *testing.T) {
	for _, name := range []string{"pt_bw1_clip", "pt_listeners", "suite_fig9_warm", "ckpt_cycle"} {
		t.Run(name, func(t *testing.T) {
			def, _ := lookupWorkload(name)
			rec := measureTraced(def, 1, tinySizes, time.Now())
			if rec.Failed != 0 {
				t.Fatalf("fail_share = %d/%d: %v", rec.Failed, rec.Attempted, rec.Errors)
			}
			sp := &spans{list: rec.Spans}
			if len(sp.list) == 0 {
				t.Fatal("no spans recorded")
			}
			self := sp.selfNs()
			sum := map[int]int64{}
			for i, s := range sp.list {
				sum[s.Rep] += self[i]
				if self[i] < 0 {
					t.Errorf("span %d %s: negative self time %d ns", i, s.Name, self[i])
				}
				if s.Parent >= 0 {
					p := sp.list[s.Parent]
					if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Rep != p.Rep {
						t.Errorf("span %d %s [%d,%d] rep %d escapes its parent %s [%d,%d] rep %d",
							i, s.Name, s.StartNs, s.EndNs, s.Rep, p.Name, p.StartNs, p.EndNs, p.Rep)
					}
				}
			}
			for _, s := range sp.list {
				if s.Parent >= 0 {
					continue
				}
				if d := math.Abs(float64(sum[s.Rep]-s.dur())) / float64(s.dur()); d > 0.01 {
					t.Errorf("repetition %d: self times sum to %d ns, its span is %d ns", s.Rep, sum[s.Rep], s.dur())
				}
			}
			if _, ok := rec.Layer["trace_overhead_rel"]; !ok {
				t.Error("trace_overhead_rel not reported")
			}
			known := map[string]bool{}
			for _, d := range perLayer() {
				known[d.name] = true
			}
			for n := range rec.Layer {
				if !known[n] {
					t.Errorf("traced run reports %s, which perLayer does not list", n)
				}
			}
		})
	}
}
