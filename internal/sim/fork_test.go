package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"clip/internal/invariant"
	"clip/internal/mem"
	"clip/internal/trace"
)

// What a fork costs (ROADMAP item 1(b)): the tests below pin the image as a
// function of the simulated state, NewSystem's footprint, the image's size,
// and SaveState's first-buffer estimate, on the geometries bench/ measures.

// mem8 is bench's bandwidth mix: streaming, pointer-chasing and mixed traces,
// so cores cross a warm-up barrier at very different stream positions.
var mem8 = []string{"619.lbm_s-2676B", "603.bwaves_s-1740B", "649.fotonik3d_s-1176B", "654.roms_s-1007B",
	"605.mcf_s-1554B", "607.cactuBSSN_s-2421B", "620.omnetpp_s-141B", "657.xz_s-1306B"}

// meshGeometry is bench's kernelConfig: cores on 8 channels, caches scaled by
// 8, one SPEC+GAP trace drawn per core (the draw of workload.Heterogeneous(1,
// cores, 1), which imports this package), berti+CLIP, 2000+2000 instructions.
func meshGeometry(cores int) Config {
	cfg := withCLIP(DefaultConfig(cores, 8, 8))
	pool := append(append([]string{}, trace.SpecHomogeneous45...), trace.GAPTraces...)
	rng := mem.NewPRNG(1 ^ 0x48e7e20)
	for i := range cfg.Workload {
		cfg.Workload[i] = pool[rng.Intn(len(pool))]
	}
	cfg.InstrPerCore, cfg.WarmupInstr = 2000, 2000
	cfg.Prefetcher = "berti"
	return cfg
}

// TestImageCanonical: an image is a function of the simulated state, not of
// what the process has built or run before. Trace programs are cached
// process-wide and a core's image is the start of its current batch plus how
// much of the batch it dispatched, so warming the same point up before and
// after a full run of it yields the same bytes, and either image resumes to
// the uninterrupted run's report. The short warm-up ends inside the cores'
// first few batches, the long one tens of batches in, with the cores far
// apart.
func TestImageCanonical(t *testing.T) {
	for _, arm := range []struct {
		name          string
		warmup, instr uint64
	}{
		{"short-warmup", 1000, 17000},
		{"long-warmup", 14000, 4000},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := DefaultConfig(8, 8, 8)
			cfg.Workload = append([]string(nil), mem8...)
			cfg.WarmupInstr, cfg.InstrPerCore = arm.warmup, arm.instr
			cfg.Prefetcher = "berti"
			// A seed no other test uses: the first warm-up builds the programs.
			cfg.Seed = 0x1ca7 + arm.warmup

			cold, err := WarmupImage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := json.Marshal(mustRun(t, cfg))
			hot, err := WarmupImage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold, hot) {
				t.Errorf("the image depends on process history: %d bytes before the point was run, %d after",
					len(cold), len(hot))
			}
			for name, image := range map[string][]byte{"cold": cold, "hot": hot} {
				res, err := RunFromImage(cfg, image)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := json.Marshal(res); !bytes.Equal(got, ref) {
					t.Errorf("%s image diverges from the uninterrupted run: %s", name, firstDiff(ref, got))
				}
			}
		})
	}
}

// TestNewSystemFootprint budgets what one fork allocates before it loads
// anything, counted by the runtime and so the same on every host, on every
// steadyArms configuration: a cold NewSystem, with no closed System to
// recycle, and a recycled one, built on the memory of the cold build after
// its Close. NewSystem builds each kind of component once for all cores
// (DESIGN.md §8), so what a cold build allocates is a constant per System
// plus the cores' trace cursors: an arm fails above footprintBase +
// footprintPerCore a core (the arms measure 111–147 allocations on 4 to 16
// cores). The 64-core geometry has a tighter count (241 now) and keeps its
// byte budget (11.80 MB now). A recycled build allocates no slab, only the
// System, the mesh and DRAM headers and the trace cursors: an arm fails
// above recycledBase + recycledPerCore allocations a core (15 + 2 a core
// now) or recycledBytesBase + recycledBytesPerCore bytes a core (about 2.6
// KB + 650 bytes a core now), and on the 64-core geometry above 15% of the
// cold build's bytes (0.4% now). On that geometry the test also counts the
// rest of a fork, LoadState and SaveState of its warm-up image (32–38 now).
// A fork that changes mechanism recycles as well: the berti-ipcp-berti case
// builds pf-berti, pf-ipcp and pf-berti again, each closed before the next,
// and the third build is held to the recycled budgets. Spending more is a
// decision to make here, not something a fork-per-point campaign discovers.
//
// The budgets cover NewSystem with every trace program its cores read
// already built: a process builds a program once and caches it, but only up
// to trace's bound, and past it NewSystem builds programs privately on every
// call. So each case is measured in a fresh process, where its subtest runs
// alone, and repeats a first build that built the programs; that build stays
// open until the end, so the cold build cannot recycle it.
func TestNewSystemFootprint(t *testing.T) {
	const (
		footprintBase    = 160
		footprintPerCore = 4
		// mesh-geometry64, bench's 64-core kernelConfig.
		budgetMallocs64  = 420
		budgetBytes64    = 12_350_000
		budgetLoadSave64 = 160
		// A recycled build.
		recycledBase         = 24
		recycledPerCore      = 2
		recycledBytesBase    = 4096
		recycledBytesPerCore = 768
	)
	const self = "^TestNewSystemFootprint$"
	_, child := strings.CutPrefix(flag.Lookup("test.run").Value.String(), self+"/")
	// inFreshProcess runs the named subtest alone in a fresh process and logs
	// its NewSystem lines, unless this is that process; it reports whether it
	// did, which leaves the caller nothing to measure.
	inFreshProcess := func(t *testing.T, name string) bool {
		if child {
			return false
		}
		out, err := exec.Command(os.Args[0], "-test.run="+self+"/^"+name+"$", "-test.v").CombinedOutput()
		if err != nil {
			t.Fatalf("%v in a fresh process:\n%s", err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if _, m, ok := strings.Cut(line, "NewSystem("); ok {
				t.Log("NewSystem(" + m)
			}
		}
		return true
	}
	// build returns a new System and what building it allocated.
	build := func(t *testing.T, cfg Config) (s *System, bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := NewSystem(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return s, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	// checkRecycled fails a recycled build of name above the budgets.
	checkRecycled := func(t *testing.T, name string, cores int, bytes, mallocs uint64) {
		budget, bytesBudget := uint64(recycledBase+recycledPerCore*cores), uint64(recycledBytesBase+recycledBytesPerCore*cores)
		t.Logf("NewSystem(%s, %d cores): recycled %d bytes in %d allocations (budgets %d bytes, %d)",
			name, cores, bytes, mallocs, bytesBudget, budget)
		if mallocs > budget || bytes > bytesBudget {
			t.Errorf("a recycled NewSystem on %d cores made %d allocations of %d bytes; the budgets are %d and %d bytes",
				cores, mallocs, bytes, budget, bytesBudget)
		}
	}
	arms := steadyArms()
	cfgs := map[string]Config{}
	for _, arm := range arms {
		cfgs[arm.name] = arm.cfg
		t.Run(arm.name, func(t *testing.T) {
			if inFreshProcess(t, arm.name) {
				return
			}
			first, _, _ := build(t, arm.cfg) // builds and caches the cores' trace programs
			defer first.Close()
			cold, bytes, mallocs := build(t, arm.cfg)
			filed := cold.arena
			cold.Close()
			recycled, recBytes, recMallocs := build(t, arm.cfg)
			took := recycled.arena
			recycled.Close()

			cores := arm.cfg.Cores()
			budget := uint64(footprintBase + footprintPerCore*cores)
			if arm.name == "mesh-geometry64" {
				budget = budgetMallocs64
				if bytes > budgetBytes64 {
					t.Errorf("NewSystem allocated %d bytes; the budget is %d", bytes, budgetBytes64)
				}
				if recBytes*100 > bytes*15 {
					t.Errorf("a recycled NewSystem allocated %d bytes, more than 15%% of a cold one's %d", recBytes, bytes)
				}
				if !invariant.Enabled { // under clipdebug every save re-checks its round trips
					forkLoadSave(t, arm.cfg, budgetLoadSave64)
				}
			}
			t.Logf("NewSystem(%s, %d cores): cold %d bytes in %d allocations (budget %d)", arm.name, cores, bytes, mallocs, budget)
			if mallocs > budget {
				t.Errorf("NewSystem on %d cores made %d allocations; the budget is %d", cores, mallocs, budget)
			}
			wantRecycled(t, took, filed)
			checkRecycled(t, arm.name, cores, recBytes, recMallocs)
		})
	}
	t.Run("berti-ipcp-berti", func(t *testing.T) {
		if inFreshProcess(t, "berti-ipcp-berti") {
			return
		}
		berti, ipcp := cfgs["pf-berti"], cfgs["pf-ipcp"]
		first, _, _ := build(t, berti) // the two read the same trace programs
		defer first.Close()
		var filed *mem.Arena
		for _, cfg := range []Config{berti, ipcp} {
			s, _, _ := build(t, cfg)
			if filed != nil {
				wantRecycled(t, s.arena, filed)
			}
			filed = s.arena
			s.Close()
		}
		s, bytes, mallocs := build(t, berti)
		wantRecycled(t, s.arena, filed)
		s.Close()
		checkRecycled(t, "berti after ipcp", berti.Cores(), bytes, mallocs)
	})
}

// forkLoadSave counts what LoadState and SaveState of cfg's warm-up image
// allocate on a fresh System, and fails above budget.
func forkLoadSave(t *testing.T, cfg Config, budget uint64) {
	image, err := WarmupImage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.LoadState(image); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveState(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("NewSystem(%d cores) then LoadState+SaveState of a %d-byte image: %d allocations in the two (budget %d)",
		cfg.Cores(), len(image), mallocs, budget)
	if mallocs > budget {
		t.Errorf("LoadState and SaveState made %d allocations; the budget is %d", mallocs, budget)
	}
}

// TestImageFootprint budgets the image a fork is made from: the warm-up
// image of the 8- and 64-core ckpt_cycle geometry (4k warm-up, 4k measured
// instructions), whose bytes a sampled campaign pays per sample in memory
// and in every SaveState. The budgets are the sizes now (packed word and
// byte columns, only live MSHR prefetch requests and Berti rows, packed
// CLIP entries) plus 5%; the same images written as fixed-width words were
// 1.35 and 10.5 MB.
func TestImageFootprint(t *testing.T) {
	for _, arm := range []struct {
		cores  int
		budget int
	}{
		{8, 432_200},    // 411,614 bytes
		{64, 3_404_400}, // 3,242,261 bytes
	} {
		t.Run(fmt.Sprintf("cores%d", arm.cores), func(t *testing.T) {
			t.Parallel()
			cfg := meshGeometry(arm.cores)
			cfg.WarmupInstr, cfg.InstrPerCore = 4000, 4000
			image, err := WarmupImage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("a %d-byte warm-up image", len(image))
			if len(image) > arm.budget {
				t.Errorf("the warm-up image is %d bytes; the budget is %d", len(image), arm.budget)
			}
		})
	}
}

// TestImageSizeHint: the first save of a fresh system sizes its buffer by
// estimate, and a warm-up image, which runner.Cache keeps for as long as it
// keeps the point, holds at most 30% more capacity than bytes — whether the
// estimate was over (a short warm-up leaves much of the state zero, which
// packs away) or under (a long one fills the caches), on both bench
// geometries.
func TestImageSizeHint(t *testing.T) {
	for _, cores := range []int{8, 64} {
		for _, warmup := range []uint64{500, 14000} {
			t.Run(fmt.Sprintf("cores%d/warmup%d", cores, warmup), func(t *testing.T) {
				t.Parallel()
				cfg := meshGeometry(cores)
				cfg.WarmupInstr = warmup
				image, err := WarmupImage(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ratio := float64(cap(image)) / float64(len(image))
				t.Logf("a %d-byte image in a %d-byte buffer (%.3fx)", len(image), cap(image), ratio)
				if ratio > 1.3 {
					t.Errorf("the image's capacity is %.3fx its length, want at most 1.3x", ratio)
				}
			})
		}
	}
}
