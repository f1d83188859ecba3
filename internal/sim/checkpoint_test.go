package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
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
const imageDigestsVersion = 8

// imageDigests holds the sha256 of each checkpointMatrix arm's image after
// imageDigestSteps steps. Re-record it only with a snapshot.Version bump, or
// together with a re-record of the goldens for an intended change of
// behaviour.
var imageDigests = map[string]string{
	"clip":         "19b0725ebe2e6b4946382611b243fad662a29eb02aa496337727429fb4104370",
	"critpred":     "3f170dd00a386fc47b8452ba2091059e4bb544802eba5f85b397aede79c0cb64",
	"dynclip":      "cd6782a9765a5bdb0ca28337ab77ae33691540d5e028c228f647be204f289ab6",
	"hermes":       "6a971bbfa2f3dcba3b87c98b108e60d20daee299d5ec77a944e66d31990f330f",
	"het-dspatch":  "dd00ec1b05265343891301b8034be602c57f7755d7bd360141f274c9a03f1a94",
	"mesh16-1ch":   "b45448d567695b25d96184f79c9befcb8de7c1a21ce0e981aa85b1d3f089a56a",
	"mesh64":       "ace26fdea8f0808bf5d9041800ee8ccd194b26d043dd7f07a765b245cab7bc4a",
	"noc-prio-off": "a67a8c7f4e9be50c9890065f2fcb03276170dfd47f0b831da6f3dcacae91edff",
	"scored":       "445b24457a6ad87c34f8fd64ec49c8f39c65c84a9ec9ed0758c855572039cba6",
	"spac":         "773dad1aa761309746b5967defb1596dcd6f40f281faf5dad881767e93a60d2b",
	"stall-hermes": "d9c63451636acd8bc71b3fd6406bc4f224708c0d9c9c0e88b24458a8225ee537",
	"stall-mshr":   "893fc6cc59e6267e065143d2c4cbf47097128e8d030ec164c6f642e766b9c253",
	"stall-rq":     "09690d5dc2e91f9c6e0aef34d7bbe7c699c2a8e60ef2503695e949f30219bdd0",
	"throttler":    "dfaed97e7ea168a386074e109d232d46f8c44ce1bf1acfbed48eb481591ff5f2",
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

// oracleArm is one configuration TestOracleEquivalence runs: a Config, the
// seeds it runs at, where its runs save images, and what it must provoke.
type oracleArm struct {
	name   string
	cfg    Config
	rq, wq int // controller queue sizes no Config reaches; 0 keeps cfg's
	seeds  []uint64
	// fracs are the split points in ascending order, as fractions of the
	// instructions the cores retire over warmup and measurement; the first
	// must fall inside the warmup.
	fracs []float64
	// golden arms have their result under testdata/soa at seeds 1 and 2.
	golden bool
	// saveWhen, when set, is the state a skipping run must be in to save: each
	// split point moves to the first step after it where saveWhen holds, and a
	// run that never gets there fails.
	saveWhen func(*System) bool
	// heavy is the stalls the arm exists to provoke; nil for the other arms.
	heavy func(stallCounters) bool
}

// oracleArms is every checkpointMatrix arm, at seeds 1 and 2 (clip also at 3
// and 4) and split at a fifth and half of the run (clip also at 0.05, 0.25,
// 0.75 and 0.95), then the tight-queue arms.
func oracleArms() []oracleArm {
	matrix := checkpointMatrix()
	mshrBound := func(sc stallCounters) bool { return sc.L1MSHRFull > 0 && sc.TLBAccesses > 0 }
	heavy := map[string]func(stallCounters) bool{
		"stall-mshr":   mshrBound,
		"stall-hermes": mshrBound,
		"stall-rq":     func(sc stallCounters) bool { return mshrBound(sc) && sc.RQFull > 0 },
		"mesh16-1ch":   func(sc stallCounters) bool { return sc.RQFull > 0 },
	}
	var arms []oracleArm
	for _, name := range sortedNames(matrix) {
		a := oracleArm{name: name, cfg: matrix[name], seeds: []uint64{1, 2}, fracs: []float64{0.2, 0.5}, heavy: heavy[name]}
		switch name {
		case "clip":
			a.seeds = append(a.seeds, 3, 4)
			a.fracs = []float64{0.05, 0.2, 0.25, 0.5, 0.75, 0.95}
			a.golden = true
		case "hermes", "throttler", "het-dspatch", "critpred":
			a.golden = true
		case "mesh64", "mesh16-1ch":
			a.saveWhen = owingBoth
		}
		arms = append(arms, a)
	}
	return append(append(arms, tightArms()...), hermesIrrArm())
}

// owingBoth holds while tiles and LLC slices both sleep owing cycles.
func owingBoth(s *System) bool {
	tiles, slices := s.asleepOwing()
	return tiles > 0 && slices > 0
}

// build returns a fresh system for the arm at seed under the given mode.
func (a oracleArm) build(seed uint64, noskip bool) (*System, error) {
	cfg := a.cfg
	cfg.Seed, cfg.DisableSkip = seed, noskip
	d := cfg.dramConfig()
	if a.rq != 0 {
		d.RQ = a.rq
	}
	if a.wq != 0 {
		d.WQ = a.wq
	}
	return newSystem(cfg, d)
}

// oracleRun is one full run of an arm and the images it saved on the way.
type oracleRun struct {
	res    *Result
	self   SelfStats // the work the loop did
	images [][]byte
}

// run simulates the arm at seed to the end in one mode, saving an image at
// each split point. Every save must leave no sleeper owing cycles and must
// equal a second save made straight after it.
func (a oracleArm) run(seed uint64, noskip bool) (run oracleRun, err error) {
	s, err := a.build(seed, noskip)
	if err != nil {
		return run, err
	}
	total := float64(a.cfg.Cores()) * float64(a.cfg.WarmupInstr+a.cfg.InstrPerCore)
	for maxCycles := s.MaxCycles(); s.Step(maxCycles); {
		next := len(run.images)
		if next == len(a.fracs) || float64(s.retired()) < a.fracs[next]*total {
			continue
		}
		if a.saveWhen != nil && !noskip && !a.saveWhen(s) {
			continue
		}
		if next == 0 && s.warmed {
			return run, fmt.Errorf("skip=%t: the first split point %v falls after the warmup", !noskip, a.fracs[0])
		}
		image, err := s.SaveState()
		if err != nil {
			return run, err
		}
		if tiles, slices := s.asleepOwing(); tiles+slices != 0 {
			return run, fmt.Errorf("skip=%t: SaveState at cycle %d left %d tiles and %d slices unsettled", !noskip, s.cycle, tiles, slices)
		}
		if again, err := s.SaveState(); err != nil || !bytes.Equal(image, again) {
			return run, fmt.Errorf("skip=%t: two saves in a row at cycle %d differ (err=%v)", !noskip, s.cycle, err)
		}
		run.images = append(run.images, image)
	}
	if run.res = s.collect(); !run.res.Finished {
		return run, fmt.Errorf("skip=%t: run did not finish%s", !noskip, s.stallNote())
	}
	if len(run.images) != len(a.fracs) {
		return run, fmt.Errorf("skip=%t: saved at %d of the split points %v", !noskip, len(run.images), a.fracs)
	}
	run.self = s.SelfStats()
	return run, nil
}

// retired is the instructions the cores have retired since the start.
func (s *System) retired() (n uint64) {
	for _, c := range s.cores {
		n += c.RetiredTotal()
	}
	return n
}

// asleepOwing counts the sleeping tiles and slices that have cycles owed.
func (s *System) asleepOwing() (tiles, slices int) {
	for i := range s.cores {
		if s.awake.tiles.asleep(i) && s.l1d[i].Cycle()+1 < s.cycle {
			tiles++
		}
		if s.awake.slices.asleep(i) && s.llc[i].Cycle()+1 < s.cycle {
			slices++
		}
	}
	return tiles, slices
}

// restore resumes image in a fresh system under the given mode, which must
// save the image back byte for byte and then finish equal to ref.
func (a oracleArm) restore(seed uint64, noskip bool, image []byte, ref *Result) error {
	s, err := a.build(seed, noskip)
	if err != nil {
		return err
	}
	if err := s.LoadState(image); err != nil {
		return err
	}
	if again, err := s.SaveState(); err != nil || !bytes.Equal(again, image) {
		return fmt.Errorf("restored with skip=%t, re-saving the image changes its bytes (err=%v)", !noskip, err)
	}
	for maxCycles := s.MaxCycles(); s.Step(maxCycles); {
	}
	return sameResult(fmt.Sprintf("restored with skip=%t", !noskip), ref, s.collect())
}

// sameResult fails unless got finished equal to want: bulk-charged counters
// first, for a pointed message, then the Result and its report bytes.
func sameResult(what string, want, got *Result) error {
	if !got.Finished {
		return fmt.Errorf("%s: run did not finish", what)
	}
	var errs []error
	if a, b := stallCountersOf(want), stallCountersOf(got); a != b {
		errs = append(errs, fmt.Errorf("%s: bulk-charged counters diverge:\n want: %+v\n got:  %+v", what, a, b))
	}
	if !reflect.DeepEqual(want, got) {
		errs = append(errs, fmt.Errorf("%s: Result diverges", what))
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		errs = append(errs, fmt.Errorf("%s: report not byte-identical: %s", what, firstDiff(wantJSON, gotJSON)))
	}
	return errors.Join(errs...)
}

// updateSoA rewrites the golden results under testdata/soa from the strict
// runs. The fixtures were captured before the tick kernel's
// structure-of-arrays rewrite; regenerate them only for an intended change of
// behaviour, never to paper over a diff.
var updateSoA = flag.Bool("update-soa", false, "rewrite the golden results under testdata/soa")

// checkGolden compares res with the golden result of arm at seed.
func checkGolden(arm string, seed uint64, res *Result) error {
	path := filepath.Join("testdata", "soa", fmt.Sprintf("%s-seed%d.json", arm, seed))
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	got = append(got, '\n')
	if *updateSoA {
		return os.WriteFile(path, got, 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("result diverges from the golden %s: %s", path, firstDiff(want, got))
	}
	return nil
}

// oracleOutcome is what one arm showed at one seed: the failures of each
// check the harness made, keyed by the check. A check without one passed.
type oracleOutcome map[string][]string

// The checks of an outcome: the strict run against the golden, the skipping
// run against the strict one, the skipping run's stalls, the skipping run's
// own work against its pin, and the run restored from the image the
// mode-skip run saved at frac.
const (
	goldenCheck = "golden"
	skipCheck   = "skip"
	heavyCheck  = "heavy"
	selfCheck   = "self"
)

// selfDigests pins, per "arm/seedN", the sha256 of the skipping run's
// SelfStats: what the loop did — ticks, jumps, visits, wakes by source,
// re-parks, scheduler and link work — not what it simulated. A change to the
// loop that keeps every result but does more or other work moves a pin.
// Re-record a pin only for an intended change of the loop's work.
var selfDigests = map[string]string{
	"clip/seed1":         "ff91e37fb9dc0b104768490921de483c5f8ff699fe965617975a77d2dd21cf8a",
	"clip/seed2":         "2e597a87a95cefd0994309b265bb211e6e53fcab2cf85a25c2bb67e88f28764b",
	"clip/seed3":         "15acb09ba7215b4ab735fb60b9fb0588d67f82803480b7486b0aefcfd4dd39ca",
	"clip/seed4":         "f33d8ab84f6b26bc073a5e4a9451e98e4b358d818c6a21eec0d4bc66d6607c7e",
	"critpred/seed1":     "8ab58924c5e38524253213c0303cc86dad1b85ba9dd5235853bd87addd10d4c7",
	"critpred/seed2":     "368d613d9c16a2a5a3686db47db15e979b21c87fc39bfbe345df42699b2c5e70",
	"dynclip/seed1":      "2e3b6690d736a45fb6440d6d984b7a129337ebf9b758c6a62a972e53f72044ad",
	"dynclip/seed2":      "e996639a2037165f7dc3b263fec94f67a0edd8f3394d3f0a748a5559f31eb7e4",
	"hermes/seed1":       "13e238c33e2a738d5d701c2c25bf1417b5d4d66e555cb9886921760c3ece3e39",
	"hermes/seed2":       "a7b6ce2464179190deb1c5509e6ef2f398312f61fc5f832b6fd6f68fdc0e14c3",
	"hermes-irr/seed1":   "f8d69e51ccb286022f1b8250faccaac7e1e0ce6a75b2c135c26df440e0c7599f",
	"hermes-irr/seed2":   "d30c135433a6f9fb2d8225384ae4750fc9827f32f6ff3fe25952b1319824418f",
	"het-dspatch/seed1":  "53bec0078cd7ac27b002330890767075dfeaf928ef275881ce5df34b38919bb2",
	"het-dspatch/seed2":  "0b4ddd02c0bc09ffb8f9e913c6c9016129a5b69ef89711addc9751be6d43da62",
	"mesh16-1ch/seed1":   "c1720bd78c5d9a5ce130010142e030fbfcee47fbd438260fbb2490a53f723fe6",
	"mesh16-1ch/seed2":   "1f92c6441a17d3b20f252bd3404930e50ef14d39797a8288c553a8f66d8b8a64",
	"mesh64/seed1":       "b11b6c2b4f9cfc7f252577e13063e3b5f676bf928d6ad2b8277dbea968ad2efc",
	"mesh64/seed2":       "99f2061118089520bcc40efc387575e80d11ecf7bff4ca93eb23474152e64d63",
	"noc-prio-off/seed1": "e3b539afb9264bc815b2e7b09663a453ba9a6672be953525223a6d410d1f4f83",
	"noc-prio-off/seed2": "33c3230e37fecbac37806a69d8c4816fb20e50b7f23fd704a923d76be0f5b2ac",
	"scored/seed1":       "7e6fd57bafe50ba6731736024c6d040baa26f0316c4e149400b59a788d9a0d69",
	"scored/seed2":       "2d2b813c9ebb6c1e9f444660c8df6534c0ff63bde1d31514b3bec6060202cce7",
	"spac/seed1":         "239be350d3ff34e192785581e45cffed138bf96b81434f641d4773dd4c1b5595",
	"spac/seed2":         "b1779bd87f54e5056b833b8e02ab4065105b94328f9047cde04933807f634fe6",
	"stall-hermes/seed1": "6f2b0f22cc8dc397458b39b450814f1e09258beb1e39821deeebc22b9246884e",
	"stall-hermes/seed2": "63542837ab9a9b178e0739108bdb763da9a73d8d03c794e02482e4d89990bcd8",
	"stall-mshr/seed1":   "eaa756b83e0eabb86e19b50eb9a0156e25e7838d62627b161f55226ca838e662",
	"stall-mshr/seed2":   "0fefec74ba8331d7f9c0e5f2b053df09661b539f8249168a097c3275b92e3ddb",
	"stall-rq/seed1":     "af761c952a9cdaf04bd6aef27d4d44afb852595a395872f1a51b5493e3688762",
	"stall-rq/seed2":     "bbba50139f2c1075232753e286d07c63f5edb379ab6cb5f395a6cf683a89f04b",
	"throttler/seed1":    "f668645be432096a09e2e19752e129e5bd6e9a19422586ae7c016021e34e2b02",
	"throttler/seed2":    "4a1a0c364fe4de1e6c10af2cdf7d748b9c3b82b2468adf855347d059197c254f",
	"tight-clip/seed1":   "b723550ed81a190e491ac392d4d7a6109d81d07a43c89a406879169625b856df",
	"tight-clip/seed2":   "ed73b6ea791b2fe55eff5e05ccb40d979e3eb78ce613d8509c3d3c8f006dcbda",
	"tight-hermes/seed1": "eb8e1e892cbbcd352c53ef0f55fde0c6d1bcebd06ce44ed899bd42145fc03121",
	"tight-hermes/seed2": "2bba1340dcac1d461e25db91bf41e34cd29ab22921788036c2d2edd6dd8b8f4c",
}

// checkSelf compares the skipping run's SelfStats of the arm at seed with its
// pin.
func checkSelf(key string, self SelfStats) error {
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", self))))
	if want := selfDigests[key]; got != want {
		return fmt.Errorf("SelfStats of %s hash to %s, recorded %q: %+v", key, got, want, self)
	}
	return nil
}

func restoreCheck(skip bool, frac float64) string {
	return fmt.Sprintf("restore/skip=%t/frac=%v", skip, frac)
}

func (o oracleOutcome) fail(check string, err error) {
	if err != nil {
		o[check] = append(o[check], err.Error())
	}
}

// report fails t with the failures of the named checks.
func (o oracleOutcome) report(t *testing.T, checks ...string) {
	t.Helper()
	for _, c := range checks {
		fails, ok := o[c]
		if !ok {
			t.Errorf("the harness makes no check %q", c)
		}
		for _, f := range fails {
			t.Errorf("%s: %s", c, f)
		}
	}
}

// outcome runs the arm at seed in both modes and makes every check on the
// runs. A full run that fails fails every check resting on it.
func (a oracleArm) outcome(seed uint64) oracleOutcome {
	o := oracleOutcome{}
	var onStrict, onSkip []string
	if a.golden && seed <= 2 {
		onStrict = append(onStrict, goldenCheck)
	}
	onSkip = append(onSkip, skipCheck, selfCheck)
	if a.heavy != nil {
		onSkip = append(onSkip, heavyCheck)
	}
	for _, frac := range a.fracs {
		onStrict = append(onStrict, restoreCheck(false, frac))
		onSkip = append(onSkip, restoreCheck(true, frac))
	}
	for _, c := range append(onStrict, onSkip...) {
		o[c] = nil
	}
	ref, err := a.run(seed, true)
	if err != nil {
		for c := range o {
			o.fail(c, err)
		}
		return o
	}
	if a.golden && seed <= 2 {
		o.fail(goldenCheck, checkGolden(a.name, seed, ref.res))
	}
	for k, image := range ref.images {
		o.fail(restoreCheck(false, a.fracs[k]), a.restore(seed, false, image, ref.res))
	}
	skip, err := a.run(seed, false)
	if err != nil {
		for _, c := range onSkip {
			o.fail(c, err)
		}
		return o
	}
	o.fail(skipCheck, sameResult("the skipping run", ref.res, skip.res))
	o.fail(selfCheck, checkSelf(fmt.Sprintf("%s/seed%d", a.name, seed), skip.self))
	if a.heavy != nil {
		if sc := stallCountersOf(ref.res); !a.heavy(sc) {
			o.fail(heavyCheck, fmt.Errorf("arm is no longer stall-heavy: %+v", sc))
		}
		if on, off := skip.self.TileVisitsCoreTicked, ref.self.TileVisitsCoreTicked; 2*on > off {
			o.fail(heavyCheck, fmt.Errorf("stalled cores still poll under skipping: %d core Ticks against the strict loop's %d", on, off))
		}
	}
	for k, image := range skip.images {
		o.fail(restoreCheck(true, a.fracs[k]), a.restore(seed, true, image, ref.res))
	}
	return o
}

// oracleOutcomes memoises outcomes by "arm/seedN", so every test that reads
// an arm at a seed shares one run set.
var oracleOutcomes sync.Map

// oracleOf returns the outcome of the arm at seed, running it on first use.
func oracleOf(a oracleArm, seed uint64) oracleOutcome {
	f, _ := oracleOutcomes.LoadOrStore(fmt.Sprintf("%s/seed%d", a.name, seed),
		sync.OnceValue(func() oracleOutcome { return a.outcome(seed) }))
	return f.(func() oracleOutcome)()
}

// TestOracleEquivalence is the simulator's contract with its own strict
// oracle. Per arm and seed it makes three kinds of run:
//   - the strict reference (DisableSkip), which must reproduce the arm's
//     golden result where it has one;
//   - the skipping run, which must equal the reference — bulk-charged
//     counters, Result, report bytes — and provoke the arm's stalls, with its
//     stalled cores asleep: at most half the strict loop's core Ticks; its
//     SelfStats must hash to the arm's pin;
//   - per image saved by either full run, a run restored from it in the
//     other mode, which must re-save the image byte for byte and then finish
//     equal to the reference.
//
// The tests after it read single checks of the same outcomes.
func TestOracleEquivalence(t *testing.T) {
	for _, a := range oracleArms() {
		for _, seed := range a.seeds {
			t.Run(fmt.Sprintf("%s/seed%d", a.name, seed), func(t *testing.T) {
				t.Parallel()
				o := oracleOf(a, seed)
				checks := make([]string, 0, len(o))
				for c := range o {
					checks = append(checks, c)
				}
				sort.Strings(checks)
				o.report(t, checks...)
			})
		}
	}
}

// oracleView is one subtest that reads checks of an arm's outcome at a seed.
type oracleView struct {
	name, arm string
	seed      uint64
	checks    []string
}

// runOracleViews runs each view as a parallel subtest.
func runOracleViews(t *testing.T, views []oracleView) {
	arms := oracleArmsByName()
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			a, ok := arms[v.arm]
			if !ok {
				t.Fatalf("no oracle arm %q", v.arm)
			}
			oracleOf(a, v.seed).report(t, v.checks...)
		})
	}
}

func oracleArmsByName() map[string]oracleArm {
	m := map[string]oracleArm{}
	for _, a := range oracleArms() {
		m[a.name] = a
	}
	return m
}

// sortedNames returns the keys of m in order.
func sortedNames(m map[string]Config) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestCheckpointSplitEquivalence: for every checkpointMatrix arm at seeds 1
// and 2, the image either full run saved halfway (label shard0) or a fifth of
// the way in (shard4, inside the warmup), restored in the other mode, finishes
// byte-identical to the strict run.
func TestCheckpointSplitEquivalence(t *testing.T) {
	var views []oracleView
	for _, name := range sortedNames(checkpointMatrix()) {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, skip := range []bool{false, true} {
				for _, split := range []struct {
					label string
					frac  float64
				}{{"shard0", 0.5}, {"shard4", 0.2}} {
					views = append(views, oracleView{fmt.Sprintf("%s/seed%d/skip=%t/%s", name, seed, skip, split.label),
						name, seed, []string{restoreCheck(skip, split.frac)}})
				}
			}
		}
	}
	runOracleViews(t, views)
}

// TestCheckpointSplitPoints: clip's images from mid-warmup to deep into
// measurement restore, in both directions, to the strict run.
func TestCheckpointSplitPoints(t *testing.T) {
	var views []oracleView
	for _, frac := range []float64{0.05, 0.25, 0.75, 0.95} {
		views = append(views, oracleView{fmt.Sprintf("frac=%v", frac), "clip", 1,
			[]string{restoreCheck(false, frac), restoreCheck(true, frac)}})
	}
	runOracleViews(t, views)
}

// TestSkipEquivalenceMatrix: every skipMatrix arm's skipping run equals its
// strict run at seed 1, and the stall arms still provoke their stalls.
func TestSkipEquivalenceMatrix(t *testing.T) {
	arms := oracleArmsByName()
	var views []oracleView
	for _, name := range sortedNames(skipMatrix()) {
		checks := []string{skipCheck}
		if arms[name].heavy != nil {
			checks = append(checks, heavyCheck)
		}
		views = append(views, oracleView{name, name, 1, checks})
	}
	runOracleViews(t, views)
}

// TestSkipEquivalenceSeeds: clip's skipping run equals its strict run at
// seeds 2 to 4.
func TestSkipEquivalenceSeeds(t *testing.T) {
	var views []oracleView
	for seed := uint64(2); seed <= 4; seed++ {
		views = append(views, oracleView{fmt.Sprintf("seed%d", seed), "clip", seed, []string{skipCheck}})
	}
	runOracleViews(t, views)
}

// TestSoAGoldenReference: the golden arms' strict runs reproduce their
// results under testdata/soa at seeds 1 and 2.
func TestSoAGoldenReference(t *testing.T) {
	var views []oracleView
	for _, a := range oracleArms() {
		for seed := uint64(1); a.golden && seed <= 2; seed++ {
			views = append(views, oracleView{fmt.Sprintf("%s-seed%d", a.name, seed), a.name, seed, []string{goldenCheck}})
		}
	}
	runOracleViews(t, views)
}

// TestCheckpointAsleepAtSave: on the many-core arms, images saved while
// tiles and slices sleep owing cycles restore to the strict run, and the
// skipping run that saved them ends equal to it (label shard0 is seed 1,
// shard4 seed 2).
func TestCheckpointAsleepAtSave(t *testing.T) {
	var views []oracleView
	for _, name := range []string{"mesh64", "mesh16-1ch"} {
		for seed, label := range []string{"shard0", "shard4"} {
			views = append(views, oracleView{name + "/" + label, name, uint64(seed) + 1,
				[]string{skipCheck, restoreCheck(true, 0.2), restoreCheck(true, 0.5)}})
		}
	}
	runOracleViews(t, views)
}

// TestStallSkipTightQueues: the tight-queue arms' skipping runs equal their
// strict runs at seed 1, with every stall site firing and stalled cores
// asleep.
func TestStallSkipTightQueues(t *testing.T) {
	var views []oracleView
	for _, a := range tightArms() {
		views = append(views, oracleView{a.name, a.name, 1, []string{skipCheck, heavyCheck}})
	}
	runOracleViews(t, views)
}

// TestStallCheckpointTightQueues: the tight-queue arms' images, saved while
// components are asleep, restore to the strict run at seed 1 (the shard
// label is part of the subtest name only).
func TestStallCheckpointTightQueues(t *testing.T) {
	var views []oracleView
	for _, a := range tightArms() {
		for _, split := range []struct {
			skip  bool
			label string
			frac  float64
		}{{true, "shard0", 0.3}, {true, "shard0", 0.7}, {true, "shard4", 0.5}, {false, "shard0", 0.5}} {
			views = append(views, oracleView{fmt.Sprintf("%s/skip=%t/%s/frac=%v", a.name, split.skip, split.label, split.frac),
				a.name, 1, []string{restoreCheck(split.skip, split.frac)}})
		}
	}
	runOracleViews(t, views)
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
			"ports", // each with its L1I and TLB
			"dramPending", "llcRetry",
			"hermesBypass", "hermesHold",
			"epochPrev", "pfGenerated", "pfIssued", "pfQ",
			"stage", // each tile's direct-DRAM queue
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

// TestTileStageSnapshotManifest: a tile's direct-DRAM queue is in the image,
// and so is the Hermes route of its refused L1 miss (in the Hermes section).
// The pop epoch and the parked head's charge mark are rebuilt: a restored
// head is offered to the controller again.
func TestTileStageSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(tileStage{}), []string{"dramQ", "route"}, []string{"pops", "charged"})
	snapshot.CheckManifest(t, snapshot.MustStruct(hermesRoute{}), []string{"live", "bypass", "req"}, nil)
}

// TestCorePortSnapshotManifest / icache / dynamicClip: the sim-local
// structures serialized inline by baseState.
func TestCorePortSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(corePort{}),
		[]string{"pending", "l1i", "tlb"},
		[]string{"s", "core"})
}

func TestICacheSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(icache{}),
		[]string{"tags", "stats"},
		[]string{"missPenalty"})
}

func TestDynamicClipSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, snapshot.MustStruct(dynamicClip{}),
		[]string{"active", "activeCycles", "totalCycles"}, nil)
}
