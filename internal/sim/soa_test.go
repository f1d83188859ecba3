package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateSoA regenerates the golden reference results under testdata/soa.
// The fixtures were captured from the pre-SoA tree (PR 5), so a plain test
// run proves the structure-of-arrays tick kernel reproduces the exact figure
// outputs of the pointer-chasing implementation it replaced. Only regenerate
// them for an intentional behavioral change, never to paper over a diff.
var updateSoA = flag.Bool("update-soa", false, "rewrite the pre-SoA golden reference fixtures")

// soaMatrix is the equivalence matrix of the SoA refactor: four mechanism
// configs (CLIP, Hermes, fdp throttler, heterogeneous TLB+DSPatch) crossed
// with two seeds. Each cell must reproduce its golden fixture byte-for-byte
// with skipping on and off.
func soaMatrix() []struct {
	name string
	cfg  Config
} {
	picks := []string{"clip", "hermes", "throttler", "het-dspatch", "critpred"}
	all := skipMatrix()
	var out []struct {
		name string
		cfg  Config
	}
	for _, name := range picks {
		cfg, ok := all[name]
		if !ok {
			panic("soaMatrix: skipMatrix lost config " + name)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			c := cfg
			c.Seed = seed
			out = append(out, struct {
				name string
				cfg  Config
			}{fmt.Sprintf("%s-seed%d", name, seed), c})
		}
	}
	return out
}

// soaArms are the execution modes every golden must be reproduced under.
var soaArms = []struct {
	name   string
	noskip bool
}{
	{"skip", false},
	{"noskip", true},
}

// TestSoAGoldenReference pins the simulator's figure outputs to the pre-SoA
// reference: canonical Result JSON captured before the flat-slab/bitmap
// rewrite of the tick kernel. Any divergence — in any execution mode — means
// the SoA data layout changed simulated behavior, which it must never do.
func TestSoAGoldenReference(t *testing.T) {
	for _, m := range soaMatrix() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			golden := filepath.Join("testdata", "soa", m.name+".json")
			want, err := os.ReadFile(golden)
			if err != nil && !*updateSoA {
				t.Fatalf("missing golden %s (run with -update-soa on a known-good tree): %v", golden, err)
			}
			for _, arm := range soaArms {
				cfg := m.cfg
				cfg.DisableSkip = arm.noskip
				res := mustRun(t, cfg)
				if !res.Finished {
					t.Fatalf("%s: run did not finish", arm.name)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				if *updateSoA {
					if arm.name == soaArms[0].name {
						if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(golden, got, 0o644); err != nil {
							t.Fatal(err)
						}
						want = got
					} else if !bytes.Equal(want, got) {
						t.Fatalf("%s diverges from %s while updating goldens: %s",
							arm.name, soaArms[0].name, firstDiff(want, got))
					}
					continue
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s: result diverges from pre-SoA golden %s: %s",
						arm.name, golden, firstDiff(want, got))
				}
			}
		})
	}
}
