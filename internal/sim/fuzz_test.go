package sim

import (
	"sync"
	"testing"

	"clip/internal/prefetch"
)

// fuzzImage is the image FuzzLoadState damages: two cores warmed with Berti
// and CLIP on one channel, small enough that a case restores and runs in
// well under a millisecond.
var fuzzImage = sync.OnceValues(func() (Config, []byte) {
	cfg := withCLIP(DefaultConfig(2, 1, 8))
	for i := range cfg.Workload {
		cfg.Workload[i] = "619.lbm_s-2676B"
	}
	cfg.InstrPerCore = 1000
	cfg.WarmupInstr = 500
	cfg.Prefetcher = "berti"
	image, err := WarmupImage(cfg)
	if err != nil {
		panic(err)
	}
	return cfg, image
})

// fuzzSteps bounds the run that follows a load: enough loop iterations to
// reach every component's restored state, and a cycle bound past them.
const (
	fuzzSteps  = 2000
	fuzzCycles = 200_000
)

// FuzzLoadState XORs mask into the image at offset at, then restores the
// damaged image into a fresh System and, when it loads, runs it a bounded
// number of steps. Whatever the bytes, neither the load nor the run may
// panic or hang: a damaged image is refused, or it is a state the simulator
// runs from.
func FuzzLoadState(f *testing.F) {
	cfg, image := fuzzImage()
	if s, err := NewSystem(cfg); err != nil || s.LoadState(image) != nil {
		f.Fatal("the undamaged image does not restore")
	}
	f.Add(uint32(0), []byte{})
	f.Add(uint32(len(image)/2), []byte{0xff})
	f.Add(uint32(len(image)-9), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint32(len(image)/3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, at uint32, mask []byte) {
		damaged := append([]byte(nil), image...)
		for k, m := range mask {
			damaged[(int(at)+k)%len(damaged)] ^= m
		}
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.LoadState(damaged) != nil {
			return
		}
		limit := s.cycle + fuzzCycles
		for i := 0; i < fuzzSteps && s.Step(limit); i++ {
		}
	})
}

// fuzzMix is the workload FuzzNewSystem's cores draw from, round robin: a
// streaming, a pointer-chasing and an irregular trace.
var fuzzMix = []string{"619.lbm_s-2676B", "605.mcf_s-665B", "620.omnetpp_s-874B"}

// FuzzNewSystem fuzzes the geometry through Validate and NewSystem — core
// count, the sets, ways and MSHRs of each cache level, ScaleDivisor,
// Channels and ROBSize, each over a range that reaches zero, negative and
// over-limit values but no memory bomb — with a fuzzed set of mechanisms,
// then runs what builds for a bounded number of steps. Each case must be
// refused with an error or run; neither the build, whose per-kind carving
// sizes every slab from the geometry, nor the run may panic.
func FuzzNewSystem(f *testing.F) {
	def := DefaultConfig(2, 1, 8)
	f.Add(uint8(2), int8(1), int8(8), int16(def.L1D.Sets), int8(def.L1D.Ways), int8(def.L1D.MSHRs),
		int16(def.L2.Sets), int8(def.L2.Ways), int8(def.L2.MSHRs),
		int16(def.LLC.Sets), int8(def.LLC.Ways), int8(def.LLC.MSHRs), int16(def.CPU.ROBSize), uint8(0x40))
	f.Add(uint8(5), int8(3), int8(1), int16(1), int8(1), int8(1), int16(2), int8(64), int8(1),
		int16(4), int8(3), int8(2), int16(4), uint8(0x7f))
	f.Add(uint8(0), int8(0), int8(0), int16(0), int8(0), int8(0), int16(-1), int8(-1), int8(-1),
		int16(3), int8(65), int8(0), int16(3), uint8(0))
	f.Fuzz(func(t *testing.T, cores uint8, channels, div int8, l1Sets int16, l1Ways, l1MSHRs int8,
		l2Sets int16, l2Ways, l2MSHRs int8, llcSets int16, llcWays, llcMSHRs int8, rob int16, mech uint8) {
		cfg := DefaultConfig(0, 1, 8)
		for i := 0; i < int(cores%17); i++ {
			cfg.Workload = append(cfg.Workload, fuzzMix[i%len(fuzzMix)])
		}
		cfg.InstrPerCore, cfg.WarmupInstr = 300, 100
		cfg.Channels = int(channels % 17)
		cfg.ScaleDivisor = int(div % 65)
		cfg.L1D.Sets, cfg.L1D.Ways, cfg.L1D.MSHRs = int(l1Sets%513), int(l1Ways%66), int(l1MSHRs%65)
		cfg.L2.Sets, cfg.L2.Ways, cfg.L2.MSHRs = int(l2Sets%513), int(l2Ways%66), int(l2MSHRs%65)
		cfg.LLC.Sets, cfg.LLC.Ways, cfg.LLC.MSHRs = int(llcSets%513), int(llcWays%66), int(llcMSHRs%65)
		cfg.CPU.ROBSize = int(rob % 1025)
		names := prefetch.Names()
		cfg.Prefetcher = names[int(mech)%len(names)]
		cfg.Hermes = mech&0x08 != 0
		cfg.DSPatch = mech&0x10 != 0
		cfg.ScorePredictors = mech&0x20 != 0
		if mech&0x40 != 0 {
			cfg = withCLIP(cfg)
		}
		if cfg.Validate() != nil {
			return
		}
		s, err := NewSystem(cfg)
		if err != nil {
			return
		}
		limit := uint64(fuzzCycles)
		for i := 0; i < fuzzSteps && s.Step(limit); i++ {
		}
	})
}
