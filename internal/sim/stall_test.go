package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// The stall arms of skipMatrix reach every sleep site a Config can provoke.
// Two need more: a full controller *write* queue, and read/write queues that
// fill within a few thousand instructions on four cores. No Config field
// sizes the controller queues, so these arms build their systems through
// newSystem with a shrunken dram.Config, and carry their own copies of the
// skip and checkpoint equivalence checks.

// tightArm is one stall-heavy configuration with explicit controller queues.
type tightArm struct {
	name   string
	cfg    Config
	rq, wq int
}

func tightArms() []tightArm {
	base := func() Config {
		cfg := stallBase(stallMix)
		// A few dozen lines per level, so dirty victims reach the controller
		// within the run and its write queue sees traffic at all.
		cfg.LLC.Sets, cfg.LLC.Ways = 16, 4
		cfg.L2.Sets, cfg.L2.Ways = 8, 4
		return cfg
	}
	clip := withCLIP(base())
	clip.L1D.MSHRs = 3
	hermes := base()
	hermes.Hermes = true
	hermes.L1D.MSHRs = 4
	return []tightArm{
		{"tight-clip", clip, 8, 1},
		{"tight-hermes", hermes, 6, 1},
	}
}

// build returns a fresh system for the arm under the given execution mode.
func (a tightArm) build(noskip bool) func() (*System, error) {
	cfg := a.cfg
	cfg.DisableSkip = noskip
	d := cfg.dramConfig()
	d.RQ, d.WQ = a.rq, a.wq
	return func() (*System, error) { return newSystem(cfg, d) }
}

// runBuilt runs a built system to completion, returning the result, its
// canonical JSON and the loop's self-counters (real core Ticks among them).
func runBuilt(t *testing.T, build func() (*System, error)) (*Result, []byte, SelfStats) {
	t.Helper()
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	s.runLoop(s.MaxCycles())
	res := s.collect()
	if !res.Finished {
		t.Fatalf("run did not finish%s", s.stallNote())
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, data, s.SelfStats()
}

// TestStallSkipTightQueues: with controller queues of a handful of
// entries every stall site fires constantly — including the write queue's —
// and the result must not depend on whether stalled components sleep (skip)
// or poll (noskip). It also shows the sleep engaging in a whole system: the
// per-cycle loop ticks every core every cycle, the skipping loop only when
// something a core waits for has happened. (That a sleeping cache head
// performs no lookup and a refused core no Issue is pinned exactly, with
// counting stubs, in internal/cache and internal/cpu.)
func TestStallSkipTightQueues(t *testing.T) {
	for _, arm := range tightArms() {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			ref, refJSON, refSelf := runBuilt(t, arm.build(false))
			refTicks := refSelf.TileVisitsCoreTicked
			sc := stallCountersOf(ref)
			if sc.L1MSHRFull == 0 || sc.RQFull == 0 || sc.WQFull == 0 || sc.TLBAccesses == 0 {
				t.Fatalf("arm is not stall-heavy: %+v", sc)
			}
			res, data, self := runBuilt(t, arm.build(true))
			ticks := self.TileVisitsCoreTicked
			// Cycles counts from the warmup barrier and the loop also ran
			// the warmup, so per-cycle ticking is at least cycles x cores.
			if cores := len(arm.cfg.Workload); ticks < res.Cycles*uint64(cores) || refTicks*2 > ticks {
				t.Errorf("stalled cores still poll under skipping: %d core Ticks vs %d per-cycle (%d measured cycles, %d cores)",
					refTicks, ticks, res.Cycles, cores)
			}
			if got := stallCountersOf(res); got != sc {
				t.Errorf("bulk-charged counters diverge between skip modes:\n skip:   %+v\n noskip: %+v", sc, got)
			}
			if !bytes.Equal(refJSON, data) {
				t.Fatalf("noskip report not byte-identical to skip: %s", firstDiff(refJSON, data))
			}
		})
	}
}

// TestStallCheckpointTightQueues: saving while components are asleep must
// lose nothing — the memos are not in the image, so every sleeper polls once
// after restore and carries on exactly like the uninterrupted run.
func TestStallCheckpointTightQueues(t *testing.T) {
	for _, arm := range tightArms() {
		// The shard element of the subtest names is a fixed label from when the
		// skip/0.5 point also ran on four shard workers.
		for _, mode := range []struct {
			noskip bool
			label  string
			frac   float64
		}{{false, "shard0", 0.3}, {false, "shard0", 0.7}, {false, "shard4", 0.5}, {true, "shard0", 0.5}} {
			arm, mode := arm, mode
			t.Run(fmt.Sprintf("%s/skip=%t/%s/frac=%v", arm.name, !mode.noskip, mode.label, mode.frac), func(t *testing.T) {
				t.Parallel()
				ref, got, refJSON, gotJSON := runSplitRestoredWith(t, arm.build(mode.noskip), mode.frac)
				if a, b := stallCountersOf(ref), stallCountersOf(got); a != b {
					t.Errorf("bulk-charged counters diverge after restore:\n straight: %+v\n restored: %+v", a, b)
				}
				if !bytes.Equal(refJSON, gotJSON) {
					t.Fatalf("reports not byte-identical: %s", firstDiff(refJSON, gotJSON))
				}
			})
		}
	}
}
