package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"clip/internal/mem"
)

// recycleRun is one run of a configuration: its System after the run, the
// image saved right after the build, the Result and its JSON.
type recycleRun struct {
	s             *System
	image, result []byte
	res           *Result
}

// runOn builds cfg on arena a and runs it to the end; with save set it saves
// an image right after the build.
func runOn(t *testing.T, a *mem.Arena, cfg Config, save bool) recycleRun {
	t.Helper()
	s, err := buildSystem(a, cfg, cfg.dramConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := recycleRun{s: s}
	if save {
		if r.image, err = s.SaveState(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.runLoop(s.MaxCycles()); err != nil {
		t.Fatal(err)
	}
	r.res = s.collect()
	if r.result, err = json.Marshal(r.res); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRecycledSystemMatchesFresh: a System built on the memory of a closed
// one is the System a fresh build makes. Every steadyArms arm runs once on
// fresh memory, saving an image right after the build; then each arm is
// built again on the arena the fresh run of the next arm left (another core
// count, or other mechanisms on as many cores): its image and its Result
// must equal the fresh ones, and the Result of the run whose memory it
// reused, marshalled before, must be unchanged after. The concurrent case
// has four goroutines build, run and Close through Run and the free list at
// once, each run equal to a fresh build's.
func TestRecycledSystemMatchesFresh(t *testing.T) {
	arms := steadyArms()
	fresh := make([]recycleRun, len(arms))
	t.Run("fresh", func(t *testing.T) {
		for i, arm := range arms {
			t.Run(arm.name, func(t *testing.T) {
				t.Parallel()
				fresh[i] = runOn(t, new(mem.Arena), arm.cfg, true)
			})
		}
	})
	if t.Failed() {
		return
	}
	for i, arm := range arms {
		j := (i + 1) % len(arms)
		donor := arms[j].name
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			// The donor is done with: build on its arena as NewSystem would
			// after its Close, but without the free list the other subtests
			// share.
			a := fresh[j].s.arena
			a.Rewind()
			got := runOn(t, a, arm.cfg, true)
			if want := fresh[i]; !bytes.Equal(got.image, want.image) {
				t.Errorf("built on %s's memory, the image differs from a fresh build's (%d and %d bytes)",
					donor, len(got.image), len(want.image))
			}
			if want := fresh[i]; !bytes.Equal(got.result, want.result) {
				t.Errorf("built on %s's memory, the run diverges from a fresh build's: %s",
					donor, firstDiff(want.result, got.result))
			}
			if after, _ := json.Marshal(fresh[j].res); !bytes.Equal(after, fresh[j].result) {
				t.Errorf("%s's Result changed once its memory was reused: %s", donor, firstDiff(fresh[j].result, after))
			}
		})
	}
	t.Run("concurrent", func(t *testing.T) {
		t.Parallel()
		var cfgs []Config
		for _, arm := range arms {
			switch arm.name {
			case "clip", "hermes", "pf-berti", "pf-bingo":
				cfgs = append(cfgs, arm.cfg)
			}
		}
		want := make([][]byte, len(cfgs))
		for k, cfg := range cfgs {
			want[k] = runOn(t, new(mem.Arena), cfg, false).result
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4*2*len(cfgs))
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 2*len(cfgs); j++ {
					k := (g + j) % len(cfgs)
					res, err := Run(cfgs[k])
					if err != nil {
						errs <- err
						continue
					}
					if got, _ := json.Marshal(res); !bytes.Equal(got, want[k]) {
						errs <- fmt.Errorf("goroutine %d, run %d of config %d: %s", g, j, k, firstDiff(want[k], got))
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestCloseRecycles: Close drops every reference the System holds and files
// its arena, which the next NewSystem of the same core count builds on; a
// second Close does nothing; a build that fails files the arena it took;
// and garbage collections empty the free list.
func TestCloseRecycles(t *testing.T) {
	cfg := DefaultConfig(2, 1, 8)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := s.arena
	s.Close()
	if !reflect.ValueOf(*s).IsZero() {
		t.Error("Close left references in the System")
	}
	s.Close()
	if s, err = NewSystem(cfg); err != nil {
		t.Fatal(err)
	}
	if s.arena != a {
		t.Fatal("NewSystem did not build on the arena of the System closed before it")
	}
	s.Close()
	bad := cfg.dramConfig()
	bad.RQ = 0
	if _, err := newSystem(cfg, bad); err == nil {
		t.Fatal("a read queue of 0 built")
	}
	if b := takeArena(cfg.Cores()); b != a {
		t.Error("a failed build did not file the arena it took")
	}

	// The free list ages at the end of each collection, on the finalizer
	// goroutine, so the test gives it a few.
	releaseArena(cfg.Cores(), a)
	filed := func() bool {
		freeArenas.Lock()
		defer freeArenas.Unlock()
		return slices.ContainsFunc(freeArenas.list, func(e coreArena) bool { return e.arena == a })
	}
	for i := 0; i < 20 && filed(); i++ {
		runtime.GC()
	}
	if filed() {
		t.Error("the free list kept an arena through 20 collections")
	}
}

// wantRecycled fails the test unless got is want, the arena a closed System
// filed before the build that took got.
func wantRecycled(t *testing.T, got, want *mem.Arena) {
	t.Helper()
	if got != want {
		t.Fatal("a build did not take the arena the System closed before it filed")
	}
}
