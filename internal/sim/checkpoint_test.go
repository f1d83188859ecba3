package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clip/internal/snapshot"
)

// checkpointMatrix enumerates the mechanism combinations the checkpoint
// contract is enforced over: the skip-equivalence configs (every subsystem
// with serialized deadlines), a SPAC-throttled CLIP config, so all four
// throttler-family snapshot kinds appear in at least one stream, and the six
// scored criticality predictors, the only arm whose image has a scored
// section.
func checkpointMatrix() map[string]Config {
	m := skipMatrix()
	spac := m["clip"]
	spac.Throttler = "spac"
	m["spac"] = spac
	m["scored"] = scoredArm()
	return m
}

// scoredArm attaches every criticality predictor in observation mode.
func scoredArm() Config {
	cfg := small("605.mcf_s-1554B", 1)
	cfg.Prefetcher = "berti"
	cfg.ScorePredictors = true
	return cfg
}

// imageDigestSteps is how far TestCheckpointImageDigests runs each arm before
// it saves.
const imageDigestSteps = 3000

// imageDigestsVersion is the snapshot.Version imageDigests was recorded at.
const imageDigestsVersion = 5

// imageDigests holds the sha256 of each checkpointMatrix arm's image after
// imageDigestSteps steps. Re-record it only with a snapshot.Version bump, or
// together with a re-record of the goldens for an intended change of
// behaviour.
var imageDigests = map[string]string{
	"clip":            "5b287918ead84eac2a6b644e1a63cbe88ee686d422b22f76ba41408588dbc297",
	"critpred":        "839f55056e506c48692f35dfa701f1b173be6e3db06049da75c995108bc3687a",
	"dynclip":         "ba3f57ea329798bc36449bb341a49ede338841e70c65177c5238da40dc8dcced",
	"hermes":          "ee1660d945fc25e5fbc2cafd4860aaf3d61ca2b8ce4a2891036be91dfc72f243",
	"het-dspatch":     "bb022b35a0d30bbcc331c2bf195ef46aaa9ccbc151ec8bc4eb9b45fa9b99d1f3",
	"mesh16-1ch":      "d13bc5355eddc0631a2d4bdb81125f08f01a80f09af0dad758e57fb64fabab56",
	"mesh64":          "ab36671c40a2d0e3fd8d413c83e5ed259b52e3f1bed61c518df253a5291187a1",
	"noc-prio-off":    "454fa7c08346693c308c386cf11f0e1acc20b9fd2b231c8e30c285bf657947a3",
	"scored":          "8d80f63a36f62d8d45a5c3d17cbccf6edeee28bbf12f01df6dd85fb22d1f931c",
	"spac":            "4ae2eebfce3f10395db75571d967e6d52a48b550ca011d6575d23892b860222e",
	"stall-hermes":    "25f6ef678222337163761ef606db3abb65c29d8c3d5afea7bb304ab377841e01",
	"stall-mshr":      "a13d53cdc10fb2ab7dadb72e7f59a3d534fd646274b817714a6632f091deab31",
	"stall-rq-shard4": "53e79a7a9e471f2e39e9d6809a7f46feaf6897b041dc6fefca3ec6dc0dc8f6bc",
	"throttler":       "476e6d3ef3089a34f9ac7c540c833a9691d29976018c9e1989e6616ca8354514",
}

// TestCheckpointImageDigests pins the image bytes of every mechanism section
// offline: each checkpointMatrix arm, stepped a fixed count and saved, must
// hash to its recorded digest.
func TestCheckpointImageDigests(t *testing.T) {
	if snapshot.Version != imageDigestsVersion {
		t.Fatalf("snapshot.Version is %d, the digests were taken at %d: re-record them", snapshot.Version, imageDigestsVersion)
	}
	matrix := checkpointMatrix()
	for name := range imageDigests {
		if _, ok := matrix[name]; !ok {
			t.Errorf("digest recorded for %q, which is not a checkpointMatrix arm", name)
		}
	}
	for name, cfg := range matrix {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxCycles := s.MaxCycles()
		for k := 0; k < imageDigestSteps && s.Step(maxCycles); k++ {
		}
		image, err := s.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(image)); got != imageDigests[name] {
			t.Errorf("%s: image (%d bytes) hashes to %s, recorded %q", name, len(image), got, imageDigests[name])
		}
	}
}

// runSplitRestored runs cfg to completion twice: once straight through, and
// once pausing at iteration k to SaveState, restoring the image into a
// completely fresh System, and finishing there. Both Results are returned
// with their canonical JSON encodings; the checkpoint contract says they are
// byte-identical.
func runSplitRestored(t *testing.T, cfg Config, frac float64) (ref, got *Result, refJSON, gotJSON []byte) {
	t.Helper()
	return runSplitRestoredWith(t, func() (*System, error) { return NewSystem(cfg) }, frac)
}

// runSplitRestoredWith is runSplitRestored over systems from build, which
// must return an identically configured fresh System on every call.
func runSplitRestoredWith(t *testing.T, build func() (*System, error), frac float64) (ref, got *Result, refJSON, gotJSON []byte) {
	t.Helper()

	// Reference pass, counting loop iterations so the split point can sit at
	// a fraction of the real run length (cycle counts vary with skipping).
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	maxCycles := s.MaxCycles()
	iters := 0
	for s.Step(maxCycles) {
		iters++
	}
	ref = s.collect()
	if !ref.Finished {
		t.Fatalf("reference run did not finish")
	}

	// Paused pass: step to k, snapshot, throw the system away.
	k := int(float64(iters) * frac)
	s2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k && s2.Step(maxCycles); i++ {
	}
	image, err := s2.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	// Restored pass: a fresh System resumes from the image.
	s3, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.LoadState(image); err != nil {
		t.Fatal(err)
	}
	// An image is canonical: saving the state it restored gives its bytes
	// back, whatever order the restored maps iterate in.
	if again, err := s3.SaveState(); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(again, image) {
		t.Fatalf("re-saving a restored image changes its bytes (%d vs %d)", len(again), len(image))
	}
	for s3.Step(maxCycles) {
	}
	got = s3.collect()

	if refJSON, err = json.Marshal(ref); err != nil {
		t.Fatal(err)
	}
	if gotJSON, err = json.Marshal(got); err != nil {
		t.Fatal(err)
	}
	return ref, got, refJSON, gotJSON
}

// TestCheckpointSplitEquivalence is the core checkpoint contract: "run N
// cycles" and "run k, snapshot, restore into a fresh process image, run
// N−k" must produce byte-identical Results — for every mechanism
// combination, across seeds, with cycle skipping on and off, and at two
// split points: halfway, and a fifth of the way in, which for these budgets
// is before or at the warmup barrier. (The last element of the subtest names
// dates from when it selected the shard-worker count.)
func TestCheckpointSplitEquivalence(t *testing.T) {
	for name, base := range checkpointMatrix() {
		for _, seed := range []uint64{1, 2} {
			for _, noskip := range []bool{false, true} {
				for _, split := range []struct {
					label string
					frac  float64
				}{{"shard0", 0.5}, {"shard4", 0.2}} {
					cfg := base
					cfg.Seed = seed
					cfg.DisableSkip = noskip
					label := fmt.Sprintf("%s/seed%d/skip=%t/%s", name, seed, !noskip, split.label)
					t.Run(label, func(t *testing.T) {
						t.Parallel()
						ref, got, refJSON, gotJSON := runSplitRestored(t, cfg, split.frac)
						if !got.Finished {
							t.Fatalf("restored run did not finish")
						}
						if !reflect.DeepEqual(ref, got) {
							t.Errorf("results diverge after restore")
						}
						if string(refJSON) != string(gotJSON) {
							t.Fatalf("reports not byte-identical: %s", firstDiff(refJSON, gotJSON))
						}
					})
				}
			}
		}
	}
}

// TestCheckpointSplitPoints varies the split fraction on one config so the
// snapshot is exercised mid-warmup (before the barrier) as well as deep into
// measurement.
func TestCheckpointSplitPoints(t *testing.T) {
	cfg := checkpointMatrix()["clip"]
	for _, frac := range []float64{0.05, 0.25, 0.75, 0.95} {
		frac := frac
		t.Run(fmt.Sprintf("frac=%v", frac), func(t *testing.T) {
			t.Parallel()
			_, _, refJSON, gotJSON := runSplitRestored(t, cfg, frac)
			if string(refJSON) != string(gotJSON) {
				t.Fatalf("split at %v diverges: %s", frac, firstDiff(refJSON, gotJSON))
			}
		})
	}
}

// TestWarmupImageRunEquivalence pins the warm-fork primitive against the
// straight run: warming up under the full config, snapshotting at the
// barrier, and resuming in a fresh System must be byte-identical to Run.
func TestWarmupImageRunEquivalence(t *testing.T) {
	for _, name := range []string{"clip", "hermes", "throttler"} {
		cfg := checkpointMatrix()[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := mustRun(t, cfg)
			image, err := WarmupImage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunFromImage(cfg, image)
			if err != nil {
				t.Fatal(err)
			}
			refJSON, _ := json.Marshal(ref)
			gotJSON, _ := json.Marshal(got)
			if string(refJSON) != string(gotJSON) {
				t.Fatalf("warm image run diverges from straight run: %s",
					firstDiff(refJSON, gotJSON))
			}
		})
	}
}

// TestWarmForkDeterminism pins the fork-many protocol the runner cache uses:
// many variants fork from one mechanism-free warmed image (WarmupConfig),
// their mechanisms starting cold at the barrier. The result is a different
// (self-consistent) protocol from in-process warmup, so the contract here is
// determinism and image-sharing, not equality with Run. Every prefetcher
// forks, at L1 (berti, ipcp) and at L2 (bingo, spppf, whose PPF registers
// eviction feedback), and so does a DSPatch-wrapped base: the image's layout
// must depend on geometry alone, never on which mechanisms are attached.
func TestWarmForkDeterminism(t *testing.T) {
	base := checkpointMatrix()["clip"]
	wcfg := WarmupConfig(base)
	image, err := WarmupImage(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	// The canonical warmup config is mechanism-free, so every variant of the
	// figure point maps to the same image.
	variant := checkpointMatrix()["hermes"]
	variant.Workload = base.Workload
	if WarmupConfig(variant).Prefetcher != wcfg.Prefetcher {
		t.Fatalf("warmup configs do not canonicalize")
	}
	arms := map[string]Config{}
	for _, name := range []string{"clip", "dynclip", "spac"} {
		arms[name] = checkpointMatrix()[name]
	}
	for _, pf := range []string{"ipcp", "bingo", "spppf"} {
		cfg := base
		cfg.Prefetcher = pf
		arms[pf] = cfg
	}
	dsp := base
	dsp.DSPatch = true
	arms["berti-dspatch"] = dsp
	for name, cfg := range arms {
		t.Run(name, func(t *testing.T) {
			a, err := RunFromImage(cfg, image)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunFromImage(cfg, image)
			if err != nil {
				t.Fatal(err)
			}
			aJSON, _ := json.Marshal(a)
			bJSON, _ := json.Marshal(b)
			if string(aJSON) != string(bJSON) {
				t.Fatalf("warm fork is nondeterministic: %s", firstDiff(aJSON, bJSON))
			}
			if !a.Finished {
				t.Fatalf("forked run did not finish")
			}
		})
	}
}

// TestLoadStateConfigMismatch: an image must only restore into the
// configuration that produced it (mechanisms aside — those sections skip).
func TestLoadStateConfigMismatch(t *testing.T) {
	cfg := checkpointMatrix()["clip"]
	image, err := WarmupImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed = 99 },
		"workload": func(c *Config) { c.Workload[0] = "605.mcf_s-665B" },
		"instr":    func(c *Config) { c.InstrPerCore++ },
		"channels": func(c *Config) { c.Channels = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := cfg
			bad.Workload = append([]string(nil), cfg.Workload...)
			mutate(&bad)
			s, err := NewSystem(bad)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.LoadState(image); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("LoadState under %s mismatch: err=%v, want ErrConfigMismatch", name, err)
			}
		})
	}
}

// TestLoadStateTruncatedAndCorrupt: a damaged image must fail cleanly — an
// error, never a panic, regardless of where the stream is cut or flipped.
func TestLoadStateTruncatedAndCorrupt(t *testing.T) {
	cfg := checkpointMatrix()["clip"]
	image, err := WarmupImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *System {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Every truncation point in the header plus a spread through the body.
	points := []int{0, 1, 4, 8, 9, 16}
	for p := 32; p < len(image); p += len(image)/97 + 1 {
		points = append(points, p)
	}
	for _, p := range points {
		s := fresh()
		if err := s.LoadState(image[:p]); err == nil {
			t.Fatalf("truncation at %d accepted", p)
		}
	}
	// Bit flips: most damage the fingerprint or a length and must error; a
	// flip that happens to decode is acceptable only if it decodes fully.
	for p := 0; p < len(image); p += len(image)/53 + 1 {
		mut := append([]byte(nil), image...)
		mut[p] ^= 0xa5
		s := fresh()
		_ = s.LoadState(mut) // must not panic
	}
	// A generator position the program cannot take is refused at load, not
	// left to panic at the first dispatch. Core 0's saved batch start is found
	// by its RNG state, read off a restored core; after it come the program
	// counter, the emitted count, the phase flag, the site count, then a
	// 29-byte record a site whose second field is its 4-byte delta index, then
	// the count of the batch's instructions dispatched.
	s := fresh()
	if err := s.LoadState(image); err != nil {
		t.Fatal(err)
	}
	// A restored core holds the batch's start in its generator.
	rng := reflect.ValueOf(s.cores[0]).Elem().FieldByName("gen").Elem().Elem().FieldByName("rng").Field(0).Uint()
	key := binary.LittleEndian.AppendUint64(nil, rng)
	at := bytes.Index(image, key)
	if at < 0 || bytes.Contains(image[at+1:], key) {
		t.Fatalf("core 0's RNG state is not in the image exactly once")
	}
	sites := at + 8 + 8 + 8 + 1 + 8
	n := int(binary.LittleEndian.Uint64(image[sites-8:]))
	for _, tc := range []struct {
		name string
		put  func(b []byte)
		want string
	}{
		{"site 0's delta index", func(b []byte) { binary.LittleEndian.PutUint32(b[sites+8:], 1<<24) }, "delta index"},
		{"the dispatched count", func(b []byte) { binary.LittleEndian.PutUint64(b[sites+n*29:], 1<<24) }, "cpu: snapshot dispatched"},
	} {
		mut := append([]byte(nil), image...)
		tc.put(mut)
		if err := fresh().LoadState(mut); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s set to 2^24: err = %v, want ErrCorrupt at %q", tc.name, err, tc.want)
		}
	}
}

// TestSystemSnapshotManifest is the reflection guard over System itself:
// adding a field without declaring its checkpoint treatment fails here.
func TestSystemSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(&System{}),
		[]string{
			// baseState
			"cycle", "measureStart", "warmed", "finished",
			"cores", "l1d", "l2", "llc", "mesh", "dram",
			"ports", "icaches", "tlbs",
			"dramPending", "llcRetry",
			"hermesBypass", "hermesHold",
			"epochPrev", "pfGenerated", "pfIssued", "pfQ",
			"stage", // each tile's direct-DRAM queue
			"coreNext",
			// mechanism sections
			"mech", "dynClip", "nextThrottle",
		},
		[]string{
			// Rebuilt by NewSystem from the (fingerprint-checked) Config.
			"cfg", "attachL2", "skip",
			// Per-cycle transient, reset by LoadState.
			"coresTicked",
			// The skipping loop's bookkeeping: SaveState settles every
			// sleeper, LoadState marks everything awake.
			"awake", "stall",
			// The progress watchdog restarts from the restored cycle.
			"watchAt", "watched", "hung",
			// About the host run, not the simulated machine.
			"self", "imageLen",
		})
}

// TestCoreMechsSnapshotManifest: each mechanism a core carries has its
// section; the capabilities resolved at attach are views of the prefetcher.
func TestCoreMechsSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(coreMechs{}),
		[]string{"pf", "clip", "crit", "scored", "throttler", "hermes"},
		[]string{"dspatch", "feedback", "berti"})
}

// TestTileStageSnapshotManifest: a tile's direct-DRAM queue is in the image.
func TestTileStageSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(tileStage{}), []string{"dramQ"}, nil)
}

// TestCorePortSnapshotManifest / icache / dynamicClip: the sim-local
// structures serialized inline by saveBase.
func TestCorePortSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(corePort{}),
		[]string{"pending"},
		[]string{"s", "core", "tlbs"})
}

func TestICacheSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(icache{}),
		[]string{"tags", "clock", "stats"},
		[]string{"sets", "ways", "missPenalty"})
	snapshot.CheckManifest(t, snapshot.MustStruct(icLine{}),
		[]string{"valid", "tag", "stamp"}, nil)
}

func TestDynamicClipSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(dynamicClip{}),
		[]string{"active", "activeCycles", "totalCycles"}, nil)
}
