package sim

import (
	"sync"
	"testing"
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
