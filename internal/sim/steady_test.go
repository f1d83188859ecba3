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
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retired := func() (n uint64) {
		for _, c := range s.cores {
			n += c.RetiredTotal()
		}
		return n
	}
	maxCycles := s.MaxCycles()
	for !s.warmed && s.Step(maxCycles) {
	}
	midpoint := retired() + uint64(cfg.Cores())*cfg.InstrPerCore/2
	for retired() < midpoint && s.Step(maxCycles) {
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
