package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"clip/internal/golden"
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

// imageDigestCycle is the simulated cycle at which TestCheckpointImageDigests
// saves each arm. It is a cycle, not a step count, so a change to the loop's
// own work alone moves no pin. The arms in imageDigestWarmed have passed the
// warm-up barrier by then, so the pins also hold measurement state.
const imageDigestCycle = 8000

// imageDigestWarmed names the arms that must be past the warm-up barrier at
// imageDigestCycle.
var imageDigestWarmed = []string{"clip", "dynclip", "spac"}

// imagePin is what testdata/images.json holds of one arm's image: its
// sha256, its length, and the bytes of each section (tag, length prefix and
// body), so a format change shows which section grew.
type imagePin struct {
	SHA256   string         `json:"sha256"`
	Bytes    int            `json:"bytes"`
	Sections map[string]int `json:"sections"`
}

// TestCheckpointImageDigests pins the image bytes of every mechanism section
// offline: each checkpointMatrix arm, run to imageDigestCycle and saved, must
// hash as testdata/images.json records at snapshot.Version. So must the
// hermes-irr oracle arm at seed 1, which at that cycle has direct-DRAM reads
// both queued and in flight, so the pins cover those layouts. Re-record it (-update)
// only with a Version bump, or together with the other goldens for an
// intended change of behaviour.
func TestCheckpointImageDigests(t *testing.T) {
	builds := map[string]func() (*System, error){}
	for name, cfg := range checkpointMatrix() {
		builds[name] = func() (*System, error) { return NewSystem(cfg) }
	}
	builds["hermes-irr"] = func() (*System, error) { return hermesIrrArm().build(1, false) }
	pins := map[string]imagePin{}
	for name, build := range builds {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for s.Step(imageDigestCycle) {
		}
		if s.cycle != imageDigestCycle || s.hung != nil {
			t.Fatalf("%s: stopped at cycle %d, not %d (hung: %v)", name, s.cycle, imageDigestCycle, s.hung)
		}
		if slices.Contains(imageDigestWarmed, name) && !s.warmed {
			t.Fatalf("%s: not past the warm-up barrier at cycle %d", name, imageDigestCycle)
		}
		if name == "hermes-irr" && (!slices.ContainsFunc(s.stage, func(st tileStage) bool { return st.dramQ.Len() > 0 }) ||
			!slices.ContainsFunc(s.bypass, func(b bypassLines) bool { return len(b) > 0 })) {
			t.Fatalf("%s: no direct-DRAM read queued or in flight at cycle %d", name, imageDigestCycle)
		}
		image, err := s.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		sections, err := imageSections(image)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pins[name] = imagePin{fmt.Sprintf("%x", sha256.Sum256(image)), len(image), sections}
	}
	if err := golden.CheckJSON("images.json", struct {
		Version int                 `json:"version"`
		Arms    map[string]imagePin `json:"arms"`
	}{snapshot.Version, pins}); err != nil {
		t.Error(err)
	}
}

// imageSections returns the bytes of each section of image. A loading Coder
// reads the head (fingerprint and mechanism set) and skips the sections one
// by one; a section's bytes are its tag, its length word and the length.
func imageSections(image []byte) (map[string]int, error) {
	c, err := snapshot.NewLoader(image)
	if err != nil {
		return nil, err
	}
	var fp string
	var m mechSet
	c.String(&fp)
	m.state(c)
	// The head is as long as a saving Coder writes it.
	h := snapshot.NewSaver(0)
	h.String(&fp)
	m.state(h)
	head, err := h.Bytes()
	if err != nil {
		return nil, err
	}
	sections := map[string]int{}
	for at := len(head); at < len(image); {
		tag := c.SkipSection()
		if err := c.Err(); err != nil {
			return nil, err
		}
		n := 8 + len(tag) + 8 + int(binary.LittleEndian.Uint64(image[at+8+len(tag):]))
		sections[tag] = n
		at += n
	}
	return sections, c.Done()
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

// checkGolden compares res with the golden result of arm at seed under
// testdata/soa. The goldens were captured before the tick kernel's
// structure-of-arrays rewrite; re-record them only for an intended change of
// behaviour, never to paper over a diff.
func checkGolden(arm string, seed uint64, res *Result) error {
	return golden.CheckJSON(fmt.Sprintf("soa/%s-seed%d.json", arm, seed), res)
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

// checkSelf compares the skipping run's SelfStats of the arm at seed with
// testdata/self: what the loop did — ticks, jumps, visits, wakes by source,
// re-parks, scheduler and link work — not what it simulated. A change to the
// loop that keeps every result but does more or other work moves a counter.
// Re-record one only for an intended change of the loop's work.
func checkSelf(arm string, seed uint64, self SelfStats) error {
	return golden.CheckJSON(fmt.Sprintf("self/%s-seed%d.json", arm, seed), self)
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
	o.fail(selfCheck, checkSelf(a.name, seed, skip.self))
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
//     SelfStats must equal the arm's golden;
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
	snapshot.CheckManifest(t, &System{},
		[]string{
			// baseState
			"cycle", "measureStart", "warmed", "finished",
			"cores", "l1d", "l2", "llc", "mesh", "dram",
			"ports", // each with its L1I and TLB
			"dramPending", "llcRetry",
			"bypass", "hermesHold",
			"epochPrev", "pfGenerated", "pfIssued", "pfQ",
			"stage", // each tile's direct-DRAM queue
			// mechanism sections
			"mech", "dynClip", "nextThrottle",
		},
		[]string{
			// Rebuilt by NewSystem from the (fingerprint-checked) Config,
			// or from it on first use.
			"cfg", "attachL2", "skip", "fp",
			// Per-cycle transient, reset by LoadState.
			"coresTicked",
			// The skipping loop's bookkeeping: SaveState settles every
			// sleeper, LoadState marks everything awake.
			"awake", "stall",
			// The progress watchdog restarts from the restored cycle.
			"watchAt", "watched", "hung",
			// About the host run, not the simulated machine.
			"self", "imageLen", "arena",
		})
}

// TestCoreMechsSnapshotManifest: each mechanism a core carries has its
// section; the capabilities resolved at attach are views of the prefetcher.
func TestCoreMechsSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, coreMechs{},
		[]string{"pf", "clip", "crit", "scored", "throttler", "hermes"},
		[]string{"dspatch", "feedback", "berti"})
}

// TestTileStageSnapshotManifest: a tile's direct-DRAM queue is in the image,
// and so is the Hermes route of its refused L1 miss (in the Hermes section).
// The pop epoch and the parked head's charge mark are rebuilt: a restored
// head is offered to the controller again.
func TestTileStageSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, tileStage{}, []string{"dramQ", "route"}, []string{"pops", "charged"})
	snapshot.CheckManifest(t, hermesRoute{}, []string{"live", "bypass", "req"}, nil)
}

// TestCorePortSnapshotManifest / icache / dynamicClip: the sim-local
// structures serialized inline by baseState.
func TestCorePortSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, corePort{},
		[]string{"pending", "l1i", "tlb"},
		[]string{"s", "core"})
}

func TestICacheSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, icache{},
		[]string{"tags", "stats"},
		[]string{"missPenalty"})
}

func TestDynamicClipSnapshotManifest(t *testing.T) {
	snapshot.CheckManifest(t, dynamicClip{},
		[]string{"active", "activeCycles", "totalCycles"}, nil)
}
