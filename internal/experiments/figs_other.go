package experiments

import (
	"strconv"

	"clip/internal/core"
	"clip/internal/sim"
	"clip/internal/stats"
	"clip/internal/workload"
)

// Fig17 reproduces Figure 17: CloudSuite and CVP homogeneous workloads
// across channel counts. Expected shape: prefetchers gain little (<10%) even
// with ample bandwidth, so the constrained-bandwidth problem is mild.
func Fig17(sc Scale) (*Report, error) {
	mixes := workload.CloudCVP(sc.Cores, sc.CloudMixes)
	return report(sc, "fig17", "CloudSuite/CVP workloads (normalized WS)",
		sweep(sc, "fig17", "variant", "", mixes, pfVariant("berti"), clipVariant("berti")))
}

// Fig18 reproduces Figure 18: sensitivity to CLIP's table sizes, sweeping
// both tables from 0.25x to 4x. Expected shape: small losses below 1x,
// marginal gains above.
func Fig18(sc Scale) (*Report, error) {
	mixes := allMixes(sc)
	t := table{title: "fig18", headers: []string{"scale", "normalized WS"}}
	for _, f := range []struct {
		scale float64
		label string
	}{{0.25, "0.25x"}, {0.5, "0.50x"}, {1, "1x"}, {2, "2x"}, {4, "4x"}} {
		v := clipVariantCfg("berti", core.DefaultConfig().Scale(f.scale))
		t.rows = append(t.rows, []any{f.scale, wsCell(f.label, 8, mixes, v)})
	}
	return report(sc, "fig18", "CLIP table size sensitivity (normalized WS at 8 channels)", t)
}

// Fig19 reproduces Figure 19: CLIP with every prefetcher across channel
// counts on homogeneous mixes.
func Fig19(sc Scale) (*Report, error) {
	return figClipVsChannels(sc, "fig19", homMixes(sc))
}

// Fig20 is Figure 20: the heterogeneous counterpart.
func Fig20(sc Scale) (*Report, error) {
	return figClipVsChannels(sc, "fig20", hetMixes(sc))
}

func figClipVsChannels(sc Scale, name string, mixes []workload.Mix) (*Report, error) {
	var vs []workload.Variant
	for _, pf := range paperPrefetchers {
		vs = append(vs, pfVariant(pf), clipVariant(pf))
	}
	t := sweep(sc, name, "variant", "", mixes, vs...)
	t.series = true
	return report(sc, name, "prefetcher and prefetcher+CLIP vs channels (normalized WS)", t)
}

// Fig21 reproduces Figure 21: Hermes and DSPatch against CLIP, all paired
// with Berti, homogeneous and heterogeneous. Expected shape: CLIP wins at
// 4-8 channels; Hermes catches up with ample bandwidth; DSPatch trails.
func Fig21(sc Scale) (*Report, error) {
	return sweepParts(sc, "fig21", "Hermes vs DSPatch vs CLIP with Berti (normalized WS)",
		pfVariant("berti"),
		mech("berti", "hermes", func(c *sim.Config) { c.Hermes = true }),
		mech("berti", "dspatch", func(c *sim.Config) { c.DSPatch = true }),
		clipVariant("berti"))
}

// Table2 reproduces Table 2: CLIP's per-core storage budget.
func Table2() (*Report, error) {
	rep := newReport("table2", "CLIP storage overhead per core")
	tb := &stats.Table{Title: "table2", Headers: []string{"structure", "detail", "bytes"}}
	cfg := core.DefaultConfig()
	for _, it := range core.StorageBudget(cfg, 512) {
		tb.AddRow(it.Structure, it.Detail, it.Bytes())
	}
	total := core.TotalStorageBytes(cfg, 512)
	tb.AddRow("TOTAL", "", total)
	rep.Values["total.bytes"] = total
	rep.Values["total.KB"] = total / 1024
	rep.Tables = append(rep.Tables, tb)
	return rep, nil
}

// Energy reproduces the §5.1 energy result: dynamic memory-hierarchy energy
// of Berti+CLIP relative to Berti. Expected shape: a double-digit percentage
// reduction on homogeneous mixes (paper: 18.21%), smaller on heterogeneous
// (paper: <7%).
func Energy(sc Scale) (*Report, error) {
	t := table{title: "energy", headers: []string{"mixes", "berti (uJ)", "berti+clip (uJ)", "reduction"}}
	berti := meanOf(resOf(0, func(r *sim.Result) float64 { return r.Energy.Total() }))
	clip := meanOf(resOf(1, func(r *sim.Result) float64 { return r.Energy.Total() }))
	reduction := func(out [][]run) float64 { return 1 - stats.SafeDiv(clip(out), berti(out)) }
	for _, p := range parts(sc) {
		b := &batch{ch: 8, mixes: p.mixes, arms: []workload.Variant{pfVariant("berti"), clipVariant("berti")}}
		t.rows = append(t.rows, []any{p.label, cell{"", b, berti}, cell{"", b, clip},
			cell{p.label + ".reduction", b, reduction}})
	}
	return report(sc, "energy", "dynamic memory-hierarchy energy: CLIP vs Berti", t)
}

// SensCores reproduces the §5.2 core-count sensitivity: CLIP's benefit at a
// fixed cores-per-channel ratio across core counts.
func SensCores(sc Scale) (*Report, error) {
	t := table{title: "sens-cores", headers: []string{"cores", "berti", "berti+clip"}}
	for _, cores := range []int{4, 8, 16} {
		s := sc
		s.Cores = cores
		n := strconv.Itoa(cores)
		berti := wsCell(n+".berti", 8, homMixes(s), pfVariant("berti"))
		clip := wsCell(n+".clip", 8, homMixes(s), clipVariant("berti"))
		berti.b.cores, clip.b.cores = cores, cores
		t.rows = append(t.rows, []any{cores, berti, clip})
	}
	return report(sc, "sens-cores", "CLIP benefit across core counts (8-channel-equivalent ratio)", t)
}

// SensLLC reproduces the §5.2 LLC-capacity sensitivity: Berti and Berti+CLIP
// at 8 channels while sweeping LLC capacity per core. Expected shape: Berti's
// slowdown worsens with smaller LLCs; CLIP's protection grows.
func SensLLC(sc Scale) (*Report, error) {
	base := template(sc, 8)
	mixes := homMixes(sc)
	t := table{title: "sens-llc", headers: []string{"llc-sets", "berti", "berti+clip"}}
	for _, mult := range []float64{0.25, 0.5, 1, 2} {
		sets := int(float64(base.LLC.Sets) * mult)
		p := 1
		for p*2 <= sets {
			p *= 2
		}
		// withLLC runs v on p LLC sets; its no-prefetch baseline keeps the
		// template's LLC.
		withLLC := func(v workload.Variant) workload.Variant {
			inner := v.Mutate
			return workload.Variant{Name: v.Name, Mutate: func(c *sim.Config) {
				c.LLC.Sets = p
				inner(c)
			}}
		}
		n := strconv.Itoa(p)
		t.rows = append(t.rows, []any{p,
			wsCell(n+".berti", 8, mixes, withLLC(pfVariant("berti"))),
			wsCell(n+".clip", 8, mixes, withLLC(clipVariant("berti")))})
	}
	return report(sc, "sens-llc", "LLC capacity sweep at 8 channels (normalized WS)", t)
}

// AblationSignature compares the critical signature against IP-only
// predictor indexing (§4.2: IP-only "drops compared to a simple IP-based
// prediction" in accuracy).
func AblationSignature(sc Scale) (*Report, error) {
	ipOnly := core.DefaultConfig()
	ipOnly.UseSignature = false
	acc := meanOf(resOf(0, func(r *sim.Result) float64 { return r.Clip.PredictionAccuracy() }))
	t := table{title: "ablation-signature", headers: []string{"variant", "normWS@8ch", "pred accuracy"}}
	for _, v := range []struct {
		name string
		cfg  core.Config
	}{{"signature", core.DefaultConfig()}, {"ip-only", ipOnly}} {
		ws := wsCell(v.name+".ws", 8, homMixes(sc), clipVariantCfg("berti", v.cfg))
		t.rows = append(t.rows, []any{v.name, ws, cell{v.name + ".accuracy", ws.b, acc}})
	}
	return report(sc, "ablation-signature", "critical signature vs IP-only indexing", t)
}

// AblationStages isolates Stage I (criticality filtering) from the full
// two-stage design (§5.1: 77.5% of the benefit comes from criticality
// filtering and prediction, the rest from accuracy filtering).
func AblationStages(sc Scale) (*Report, error) {
	stage1 := core.DefaultConfig()
	stage1.UseAccuracyStage = false
	mixes := homMixes(sc)
	return report(sc, "ablation-stages", "criticality-only vs two-stage CLIP", table{
		title: "ablation-stages", headers: []string{"variant", "normWS@8ch"},
		rows: [][]any{
			{"two-stage", wsCell("two-stage", 8, mixes, clipVariant("berti"))},
			{"criticality-only", wsCell("criticality-only", 8, mixes, clipVariantCfg("berti", stage1))},
		}})
}

// AblationThresholds sweeps the per-IP hit-rate threshold (80/90/100%) and
// the criticality count threshold (§4.2's design-choice discussion).
func AblationThresholds(sc Scale) (*Report, error) {
	mixes := homMixes(sc)
	t := table{title: "ablation-thresholds", headers: []string{"knob", "value", "normWS@8ch"}}
	for _, hr := range []float64{0.8, 0.9, 1.0} {
		cc := core.DefaultConfig()
		cc.HitRateThreshold = hr
		t.rows = append(t.rows, []any{"hit-rate", hr,
			wsCell("hitrate."+strconv.FormatFloat(hr, 'f', 2, 64), 8, mixes, clipVariantCfg("berti", cc))})
	}
	for _, cnt := range []uint8{1, 2, 3} {
		cc := core.DefaultConfig()
		cc.CritCountThreshold = cnt
		t.rows = append(t.rows, []any{"crit-count", cnt, wsCell("", 8, mixes, clipVariantCfg("berti", cc))})
	}
	return report(sc, "ablation-thresholds", "hit-rate and criticality-count thresholds", t)
}

// AblationPriority toggles the criticality-conscious NoC and DRAM (§5.1:
// they contribute 2.8% of the 24% gain).
func AblationPriority(sc Scale) (*Report, error) {
	clip := clipVariant("berti")
	off := workload.Variant{Name: "clip-noprio", Mutate: func(c *sim.Config) {
		clip.Mutate(c)
		c.NoCCriticalPriority = false
		c.DRAMCriticalPriority = false
	}}
	mixes := homMixes(sc)
	t := table{title: "ablation-priority", headers: []string{"variant", "normWS@8ch"}}
	for _, v := range []workload.Variant{clip, off} {
		t.rows = append(t.rows, []any{v.Name, wsCell(v.Name, 8, mixes, v)})
	}
	return report(sc, "ablation-priority", "criticality-conscious NoC/DRAM on vs off", t)
}

// AblationDynamic evaluates the paper's §5.3 "Dynamic CLIP" future-work
// proposal: CLIP filtering that disengages while per-core DRAM bandwidth is
// ample. Expected shape: dynamic CLIP tracks plain CLIP at low channel
// counts and recovers (part of) the prefetcher's upside at high counts.
func AblationDynamic(sc Scale) (*Report, error) {
	clip := clipVariant("berti")
	dyn := mech("berti", "dynclip", func(c *sim.Config) {
		clip.Mutate(c)
		c.DynamicCLIP = true
	})
	return report(sc, "ablation-dynamic", "static vs dynamic CLIP across channels",
		sweep(sc, "ablation-dynamic", "variant", "", homMixes(sc), pfVariant("berti"), clip, dyn))
}
