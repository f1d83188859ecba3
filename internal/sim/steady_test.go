package sim

import (
	"runtime"
	"sort"
	"testing"

	"clip/internal/prefetch"
)

// steadyMallocsPerCore bounds what a run may allocate over the second half of
// its measured instructions, per core. The tick loop, every prefetcher's
// Train and every mechanism it drives reuse storage sized at NewSystem or
// grown once to steady size, so the second half allocates only the last of
// that growth: at most 3 allocations a core on every arm below. A path that
// allocates per access, per Train or per window makes hundreds a core here,
// and more the longer the run; this bound does not depend on run length.
const steadyMallocsPerCore = 8

// TestSteadyStateAllocs: past its midpoint a run allocates only to finish
// growing to steady size. It runs every skip-matrix mechanism combination,
// every prefetcher on an 8-core mix behind one channel, the six scored
// criticality predictors and bench's 64-core mesh geometry to the point where
// the cores have retired half their measured instructions, then counts the
// heap allocations the runtime records over the rest of the run.
func TestSteadyStateAllocs(t *testing.T) {
	for _, arm := range steadyArms() {
		cores := arm.cfg.Cores()
		bound := uint64(steadyMallocsPerCore * cores)
		mallocs := secondHalfMallocs(t, arm.cfg)
		t.Logf("%-16s %2d cores: %4d allocations in the second half (bound %d)", arm.name, cores, mallocs, bound)
		if mallocs > bound {
			t.Errorf("%s: %d allocations over the second half of the run on %d cores; the bound is %d a core (%d)",
				arm.name, mallocs, cores, steadyMallocsPerCore, bound)
		}
	}
}

type steadyArm struct {
	name string
	cfg  Config
}

// steadyArms lists the configurations TestSteadyStateAllocs runs, in a fixed
// order.
func steadyArms() []steadyArm {
	var arms []steadyArm
	matrix := skipMatrix()
	names := make([]string, 0, len(matrix))
	for name := range matrix {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arms = append(arms, steadyArm{name, matrix[name]})
	}
	for _, pf := range prefetch.Names() {
		cfg := DefaultConfig(len(mem8), 1, 8)
		cfg.Workload = append([]string(nil), mem8...)
		cfg.InstrPerCore, cfg.WarmupInstr = 3000, 1000
		cfg.Prefetcher = pf
		arms = append(arms, steadyArm{"pf-" + pf, cfg})
	}
	arms = append(arms, steadyArm{"score-predictors", scoredArm()})
	arms = append(arms, steadyArm{"mesh-geometry64", meshGeometry(64)})
	return arms
}

// secondHalfMallocs runs cfg to completion and returns the heap allocations
// made after the cores, in sum, retired half their measured instructions.
func secondHalfMallocs(t *testing.T, cfg Config) uint64 {
	var midpoint uint64
	return mallocsFrom(t, cfg, func(s *System) bool {
		if !s.warmed {
			return false
		}
		var retired uint64
		for _, c := range s.cores {
			retired += c.RetiredTotal()
		}
		if midpoint == 0 {
			midpoint = retired + uint64(cfg.Cores())*cfg.InstrPerCore/2
		}
		return retired >= midpoint
	})
}

// runMallocsPerCore bounds what a whole run allocates after NewSystem
// returns, per core. NewSystem carves every queue the model bounds at its
// depth and every other one at the mem.RingSlots its first growth would
// allocate, and each core's instruction batch, so a run allocates only
// where the model leaves a structure unbounded and a storm outgrows it — an
// L1's response queue, a VC ring, the waiter pool. Measured on fresh
// memory: 1.25 to 2.75 a core on every steadyArms arm (clip and dynclip 11
// on 4 cores); mesh-geometry64 makes 141 on 64 cores. A System built on a
// closed one's memory finds its response queues grown already. With its
// queues growing from nil, a run made 28 to 47 a core.
const runMallocsPerCore = 3

// TestWholeRunAllocs: from NewSystem's return to the end of the run, every
// steadyArms configuration allocates at most runMallocsPerCore a core.
func TestWholeRunAllocs(t *testing.T) {
	for _, arm := range steadyArms() {
		cores := arm.cfg.Cores()
		bound := uint64(runMallocsPerCore * cores)
		mallocs := mallocsFrom(t, arm.cfg, func(*System) bool { return true })
		t.Logf("%-16s %2d cores: %4d allocations in the run (bound %d)", arm.name, cores, mallocs, bound)
		if mallocs > bound {
			t.Errorf("%s: %d allocations from NewSystem's return to the end of the run on %d cores; the bound is %d a core (%d)",
				arm.name, mallocs, cores, runMallocsPerCore, bound)
		}
	}
}

// mallocsFrom runs cfg to completion and returns the heap allocations made
// from the first moment start holds: it is asked once NewSystem returns and
// after every Step.
func mallocsFrom(t *testing.T, cfg Config, start func(*System) bool) uint64 {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxCycles := s.MaxCycles()
	for !start(s) && s.Step(maxCycles) {
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s.Step(maxCycles) {
	}
	runtime.ReadMemStats(&after)
	if s.hung != nil || !s.Finished() {
		t.Fatalf("run did not finish (hung: %v)", s.hung)
	}
	return after.Mallocs - before.Mallocs
}
