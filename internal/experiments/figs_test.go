package experiments

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Shape tests for the figures not covered in experiments_test.go. Each runs
// at micro scale and asserts the qualitative property the paper reports.

func TestFig3LatencyInflation(t *testing.T) {
	sc := micro()
	sc.Channels = []int{8}
	rep, err := Fig3(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Berti should not *improve* L2/LLC demand miss latency at the
	// constrained point (the paper reports ~1.9x inflation).
	if rep.Values["L2@8ch"] < 0.85 {
		t.Fatalf("L2 latency ratio %v implausibly low", rep.Values["L2@8ch"])
	}
	if rep.Values["LLC@8ch"] <= 0 {
		t.Fatal("LLC latency ratio missing")
	}
}

func TestFig5NoPriorPredictorRescuesBerti(t *testing.T) {
	sc := micro()
	sc.HetMixes = 1
	rep, err := Fig5(sc)
	if err != nil {
		t.Fatal(err)
	}
	berti := rep.Values["hom.berti@8ch"]
	if berti <= 0 {
		t.Fatal("missing berti baseline")
	}
	// The paper's claim: prior predictors fail to improve Berti
	// meaningfully. Allow small wiggle; fail if any *dramatically* beats it
	// (that would mean our baselines are broken).
	for _, p := range []string{"crisp", "catch", "fvp"} {
		v := rep.Values["hom.berti+"+p+"@8ch"]
		if v > berti*1.25 {
			t.Fatalf("%s lifted Berti %v -> %v: prior predictors should not work this well",
				p, berti, v)
		}
	}
}

func TestFig6ThrottlersMarginal(t *testing.T) {
	sc := micro()
	sc.HetMixes = 1
	rep, err := Fig6(sc)
	if err != nil {
		t.Fatal(err)
	}
	berti := rep.Values["hom.berti@8ch"]
	for _, th := range []string{"fdp", "hpac", "spac", "nst"} {
		v := rep.Values["hom.berti+"+th+"@8ch"]
		if v <= 0 {
			t.Fatalf("missing %s value", th)
		}
		if v > berti*1.3 {
			t.Fatalf("%s lifted Berti %v -> %v: throttlers should be marginal", th, berti, v)
		}
	}
}

func TestFig11And12Collect(t *testing.T) {
	sc := micro()
	rep11, err := Fig11(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep11.Values["mean.berti"] <= 0 || rep11.Values["mean.clip"] <= 0 {
		t.Fatalf("fig11 means missing: %v", rep11.Values)
	}
	rep12, err := Fig12(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep12.Values["L1.berti"] <= 0 {
		t.Fatal("fig12 coverage missing")
	}
	// CLIP trades coverage for latency: its L1 coverage must not exceed
	// Berti's (it only drops prefetches).
	if rep12.Values["L1.clip"] > rep12.Values["L1.berti"]*1.05 {
		t.Fatalf("CLIP coverage (%v) exceeds Berti's (%v)",
			rep12.Values["L1.clip"], rep12.Values["L1.berti"])
	}
}

func TestFig14And15Collect(t *testing.T) {
	sc := micro()
	rep14, err := Fig14(sc)
	if err != nil {
		t.Fatal(err)
	}
	cov := rep14.Values["mean"]
	if cov < 0 || cov > 1 {
		t.Fatalf("coverage %v out of range", cov)
	}
	rep15, err := Fig15(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep15.Values["mean.static"]+rep15.Values["mean.dynamic"] <= 0 {
		t.Fatal("no critical IPs selected")
	}
}

func TestFig17CloudSuite(t *testing.T) {
	sc := micro()
	sc.Channels = []int{8}
	rep, err := Fig17(sc)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Values["berti@8ch"]
	// The paper: prefetchers gain little on CloudSuite/CVP (hard-to-predict
	// access streams). Anything beyond +-35% at micro scale means the
	// workload models are off.
	if v < 0.65 || v > 1.35 {
		t.Fatalf("CloudSuite berti normalized WS %v outside plausible band", v)
	}
}

func TestFig18TableSensitivity(t *testing.T) {
	sc := micro()
	sc.HetMixes = 1
	rep, err := Fig18(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"0.25x", "0.50x", "1x", "2x", "4x"} {
		if rep.Values[k] <= 0 {
			t.Fatalf("missing %s", k)
		}
	}
}

func TestFig21RelatedWork(t *testing.T) {
	sc := micro()
	sc.Channels = []int{8}
	sc.HetMixes = 1
	rep, err := Fig21(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"berti", "berti+hermes", "berti+dspatch", "berti+clip"} {
		if rep.Values["hom."+v+"@8ch"] <= 0 {
			t.Fatalf("missing %s", v)
		}
	}
}

func TestSensCoresAndLLC(t *testing.T) {
	sc := micro()
	sc.HomMixes = 1
	sc.InstrPerCore = 4000
	sc.Warmup = 1000
	repC, err := SensCores(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []string{"4", "8", "16"} {
		if repC.Values[cores+".berti"] <= 0 {
			t.Fatalf("missing %s-core value", cores)
		}
	}
	repL, err := SensLLC(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(repL.Tables[0].Rows) != 4 {
		t.Fatalf("LLC sweep rows = %d, want 4", len(repL.Tables[0].Rows))
	}
}

func TestAblationsRun(t *testing.T) {
	sc := micro()
	sc.HomMixes = 1
	sc.InstrPerCore = 6000

	sig, err := AblationSignature(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Values["signature.accuracy"] <= 0 {
		t.Fatal("signature ablation empty")
	}

	st, err := AblationStages(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Values["two-stage"] <= 0 || st.Values["criticality-only"] <= 0 {
		t.Fatal("stage ablation empty")
	}

	pr, err := AblationPriority(sc)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Values["berti+clip"] <= 0 || pr.Values["clip-noprio"] <= 0 {
		t.Fatal("priority ablation empty")
	}

	dyn, err := AblationDynamic(sc)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Values["berti+dynclip@8ch"] <= 0 {
		t.Fatal("dynamic ablation empty")
	}
}

// TestAblationThresholdsKeys: each hit-rate threshold reports under its own
// key.
func TestAblationThresholdsKeys(t *testing.T) {
	sc := micro()
	sc.HomMixes = 1
	rep, err := AblationThresholds(sc)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range rep.Values {
		if strings.HasPrefix(k, "hitrate.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if want := []string{"hitrate.0.80", "hitrate.0.90", "hitrate.1.00"}; !slices.Equal(keys, want) {
		t.Fatalf("hit-rate keys %q, want %q", keys, want)
	}
}

func TestReportJSON(t *testing.T) {
	rep, _ := Table2()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	for _, want := range []string{`"name":"table2"`, `"values"`, `"tables"`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON missing %q: %s", want, js[:200])
		}
	}
}
