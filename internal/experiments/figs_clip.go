package experiments

import (
	"clip/internal/sim"
	"clip/internal/stats"
	"clip/internal/workload"
)

// Fig9 reproduces Figure 9: CLIP paired with each of the four prefetchers at
// the paper's 8-channel point, homogeneous and heterogeneous. Expected
// shape: CLIP lifts every prefetcher; largest gain with Berti.
func Fig9(sc Scale) (*Report, error) {
	var ts []table
	for _, p := range parts(sc) {
		t := table{title: "fig9-" + p.label, headers: []string{"prefetcher", "alone", "with CLIP"}}
		for _, pf := range paperPrefetchers {
			key := p.label + "." + pf
			t.rows = append(t.rows, []any{pf,
				wsCell(key, 8, p.mixes, pfVariant(pf)),
				wsCell(key+"+clip", 8, p.mixes, clipVariant(pf))})
		}
		ts = append(ts, t)
	}
	return report(sc, "fig9", "CLIP with the four prefetchers at 8 channels (normalized WS)", ts...)
}

// bertiVsClip runs Berti (arm 0) and Berti+CLIP (arm 1) with their
// baselines on every homogeneous mix at 8 channels (Figures 10, 11, 12, 16).
func bertiVsClip(sc Scale) *batch {
	return &batch{ch: 8, mixes: homMixes(sc), norm: true,
		arms: []workload.Variant{pfVariant("berti"), clipVariant("berti")}}
}

// clipRuns runs variant v on every homogeneous mix at 8 channels (Figures
// 13-15).
func clipRuns(sc Scale, v workload.Variant) *batch {
	return &batch{ch: 8, mixes: homMixes(sc), arms: []workload.Variant{v}}
}

// Fig10 reproduces Figure 10: per-mix normalized weighted speedup of Berti
// and Berti+CLIP on the homogeneous mixes at 8 channels. Expected shape:
// CLIP turns most slowdown mixes into speedups.
func Fig10(sc Scale) (*Report, error) {
	return report(sc, "fig10", "per-mix normalized WS: Berti vs Berti+CLIP (8 channels)",
		perMix("fig10", bertiVsClip(sc),
			column{"berti", "berti", "mean.berti", wsOf(0)},
			column{"berti+clip", "clip", "mean.clip", wsOf(1)}))
}

// Fig11 reproduces Figure 11: per-mix average L1 miss latency for Berti and
// Berti+CLIP. Expected shape: CLIP lowers the average latency.
func Fig11(sc Scale) (*Report, error) {
	lat := (*sim.Result).AvgL1MissLatency
	return report(sc, "fig11", "per-mix average L1 miss latency (cycles)",
		perMix("fig11", bertiVsClip(sc),
			column{"berti", "", "mean.berti", resOf(0, lat)},
			column{"berti+clip", "", "mean.clip", resOf(1, lat)}))
}

// Fig12 reproduces Figure 12: L1/L2/LLC prefetch miss coverage for Berti and
// Berti+CLIP. Expected shape: CLIP costs some coverage (the latency-for-
// coverage trade the paper describes), most visibly at L1.
func Fig12(sc Scale) (*Report, error) {
	b := bertiVsClip(sc)
	cov := func(a int, f func(*sim.Result) float64) func([][]run) float64 {
		return meanOf(resOf(a, func(r *sim.Result) float64 { return f(r) * 100 }))
	}
	l1 := func(r *sim.Result) float64 { return r.L1.Coverage() }
	l2 := func(r *sim.Result) float64 { return r.L2.Coverage() }
	llc := func(r *sim.Result) float64 { return r.LLC.Coverage() }
	return report(sc, "fig12", "prefetch miss coverage by level (%)", table{
		title: "fig12", headers: []string{"level", "berti", "berti+clip"},
		rows: [][]any{
			{"L1", cell{"L1.berti", b, cov(0, l1)}, cell{"L1.clip", b, cov(1, l1)}},
			{"L2", cell{"", b, cov(0, l2)}, cell{"", b, cov(1, l2)}},
			{"LLC", cell{"", b, cov(0, llc)}, cell{"", b, cov(1, llc)}},
		}})
}

// Fig13 reproduces Figure 13: CLIP's per-mix critical-load prediction
// accuracy against the best prior predictor. Expected shape: CLIP >90% on
// most mixes; the best prior predictor far below.
func Fig13(sc Scale) (*Report, error) {
	// Berti+CLIP with the prior predictors attached in observation mode, so
	// both are scored on the same run.
	clip := clipVariant("berti")
	scored := mech("berti", "clip+score", func(c *sim.Config) {
		clip.Mutate(c)
		c.ScorePredictors = true
	})
	// Scan predictors in sorted-name order: when two predictors tie on
	// accuracy the winner (and with it the reported value's provenance) must
	// not depend on map iteration order.
	best := func(r *sim.Result) float64 {
		best := 0.0
		for _, name := range stats.SortedKeys(r.PredScores) {
			s := r.PredScores[name]
			if a := s.Accuracy(); a > best {
				best = a
			}
		}
		return best
	}
	return report(sc, "fig13", "critical-load prediction accuracy per mix",
		perMix("fig13", clipRuns(sc, scored),
			column{"clip", "clip", "mean.clip", resOf(0, func(r *sim.Result) float64 { return r.Clip.PredictionAccuracy() })},
			column{"best-prior", "", "mean.best-prior", resOf(0, best)}))
}

// Fig14 reproduces Figure 14: CLIP's per-mix criticality prediction
// coverage. Expected shape: ~0.5-0.9 per mix, mean near 0.76.
func Fig14(sc Scale) (*Report, error) {
	return report(sc, "fig14", "critical-load prediction coverage per mix",
		perMix("fig14", clipRuns(sc, clipVariant("berti")),
			column{"coverage", "", "mean", resOf(0, func(r *sim.Result) float64 { return r.Clip.PredictionCoverage() })}))
}

// Fig15 reproduces Figure 15: the number of critical-and-accurate IPs CLIP
// selects per mix, split into static- and dynamic-critical. Expected shape:
// tens of IPs per mix, roughly half dynamic.
func Fig15(sc Scale) (*Report, error) {
	return report(sc, "fig15", "critical IPs selected by CLIP (static/dynamic)",
		perMix("fig15", clipRuns(sc, clipVariant("berti")),
			column{"static", "", "mean.static", resOf(0, func(r *sim.Result) float64 { return r.ClipStaticIPs })},
			column{"dynamic", "", "mean.dynamic", resOf(0, func(r *sim.Result) float64 { return r.ClipDynamicIPs })}))
}

// Fig16 reproduces Figure 16: the reduction in prefetch requests issued when
// CLIP gates Berti. Expected shape: ~50% average reduction.
func Fig16(sc Scale) (*Report, error) {
	reduction := func(rs []run) float64 { return 1 - stats.Ratio(rs[1].res.PFIssued, rs[0].res.PFIssued) }
	return report(sc, "fig16", "prefetch requests issued: CLIP relative to Berti",
		perMix("fig16", bertiVsClip(sc), column{"reduction", "", "mean.reduction", reduction}))
}
