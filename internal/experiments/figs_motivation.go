package experiments

import (
	"strconv"

	"clip/internal/criticality"
	"clip/internal/sim"
	"clip/internal/workload"
)

// prefetchers evaluated throughout §5.
var paperPrefetchers = []string{"berti", "ipcp", "bingo", "spppf"}

// A part is one of a figure's mix sets; its label titles a table and
// prefixes its value keys.
type part struct {
	label string
	mixes []workload.Mix
}

// parts are the homogeneous and heterogeneous mix sets.
func parts(sc Scale) []part {
	return []part{{"hom", homMixes(sc)}, {"het", hetMixes(sc)}}
}

// allMixes is the homogeneous mixes followed by the heterogeneous ones.
func allMixes(sc Scale) []workload.Mix {
	return append(homMixes(sc), hetMixes(sc)...)
}

func chLabel(ch int) string { return strconv.Itoa(ch) + "ch" }

func chLabels(chs []int) []string {
	out := make([]string, len(chs))
	for i, c := range chs {
		out[i] = chLabel(c)
	}
	return out
}

// Fig1 reproduces Figure 1: normalized weighted speedup of the four
// prefetchers across DRAM channel counts on homogeneous mixes. Expected
// shape: below 1.0 at 4-8 channels, above 1.0 with ample bandwidth.
func Fig1(sc Scale) (*Report, error) {
	return figPrefetchersVsChannels(sc, "fig1", homMixes(sc))
}

// Fig2 is Figure 2: the same sweep on heterogeneous mixes.
func Fig2(sc Scale) (*Report, error) {
	return figPrefetchersVsChannels(sc, "fig2", hetMixes(sc))
}

func figPrefetchersVsChannels(sc Scale, name string, mixes []workload.Mix) (*Report, error) {
	var vs []workload.Variant
	for _, pf := range paperPrefetchers {
		vs = append(vs, pfVariant(pf))
	}
	t := sweep(sc, name, "prefetcher", "", mixes, vs...)
	t.series = true
	return report(sc, name, "normalized weighted speedup vs paper channel count", t)
}

// Fig3 reproduces Figure 3: the increase in average L1/L2/L3 demand miss
// latency with Berti relative to no prefetching, across channel counts.
// Expected shape: ~2x inflation at 4-8 channels, near 1x at high counts.
func Fig3(sc Scale) (*Report, error) {
	mixes := allMixes(sc)
	inflation := func(lat func(*sim.Result) float64) func([][]run) float64 {
		return meanOf(func(rs []run) float64 {
			if b := lat(rs[0].base); b != 0 {
				return lat(rs[0].res) / b
			}
			return 1
		})
	}
	l1 := inflation(func(r *sim.Result) float64 { return r.L1.DemandMissLatency.Mean() })
	l2 := inflation(func(r *sim.Result) float64 { return r.L2.DemandMissLatency.Mean() })
	llc := inflation(func(r *sim.Result) float64 { return r.LLC.DemandMissLatency.Mean() })
	t := table{title: "fig3", headers: []string{"channels", "L1", "L2", "LLC"}}
	for _, ch := range sc.Channels {
		b := &batch{ch: ch, mixes: mixes, arms: []workload.Variant{pfVariant("berti")}, norm: true}
		l := chLabel(ch)
		t.rows = append(t.rows, []any{l, cell{"", b, l1}, cell{"L2@" + l, b, l2}, cell{"LLC@" + l, b, llc}})
	}
	return report(sc, "fig3", "demand miss latency with Berti / no-PF, by level", t)
}

// Fig4 reproduces Figure 4: criticality prediction accuracy and coverage of
// the six prior predictors, measured while Berti prefetches. Expected shape:
// CATCH/FVP near 100% coverage with poor accuracy; best accuracy ~41%.
func Fig4(sc Scale) (*Report, error) {
	scored := mech("berti", "score", func(c *sim.Config) { c.ScorePredictors = true })
	b := &batch{ch: 8, mixes: allMixes(sc), arms: []workload.Variant{scored}}
	// score sums one predictor's confusion matrix over the mixes, then reads it.
	score := func(name string, f func(*criticality.Score) float64) func([][]run) float64 {
		return func(out [][]run) float64 {
			var s criticality.Score
			for _, rs := range out {
				p := rs[0].res.PredScores[name]
				s.TruePos += p.TruePos
				s.FalsePos += p.FalsePos
				s.FalseNeg += p.FalseNeg
				s.TrueNeg += p.TrueNeg
			}
			return f(&s)
		}
	}
	t := table{title: "fig4", headers: []string{"predictor", "accuracy", "coverage"}}
	for _, name := range criticality.Names() {
		t.rows = append(t.rows, []any{name,
			cell{name + ".accuracy", b, score(name, (*criticality.Score).Accuracy)},
			cell{name + ".coverage", b, score(name, (*criticality.Score).Coverage)}})
	}
	return report(sc, "fig4", "prior predictor accuracy/coverage under Berti", t)
}

// Fig5 reproduces Figure 5: Berti gated by each prior criticality predictor
// across channel counts, homogeneous and heterogeneous. Expected shape: no
// predictor rescues Berti at low bandwidth.
func Fig5(sc Scale) (*Report, error) {
	vs := []workload.Variant{pfVariant("berti")}
	for _, p := range criticality.Names() {
		vs = append(vs, mech("berti", p, func(c *sim.Config) { c.CritPredictor = p }))
	}
	return sweepParts(sc, "fig5", "Berti with prior criticality predictors (normalized WS)", vs...)
}

// Fig6 reproduces Figure 6: Berti under the four throttlers across channel
// counts. Expected shape: marginal improvements, slowdown remains.
func Fig6(sc Scale) (*Report, error) {
	vs := []workload.Variant{pfVariant("berti")}
	for _, th := range []string{"fdp", "hpac", "spac", "nst"} {
		vs = append(vs, mech("berti", th, func(c *sim.Config) { c.Throttler = th }))
	}
	return sweepParts(sc, "fig6", "Berti with prefetch throttlers (normalized WS)", vs...)
}

// sweepParts sweeps variants over channel counts on the hom and het mixes,
// one table each (Figures 5, 6 and 21).
func sweepParts(sc Scale, name, about string, vs ...workload.Variant) (*Report, error) {
	var ts []table
	for _, p := range parts(sc) {
		ts = append(ts, sweep(sc, name+"-"+p.label, "variant", p.label+".", p.mixes, vs...))
	}
	return report(sc, name, about, ts...)
}
