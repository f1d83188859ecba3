package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"clip/internal/invariant"
	"clip/internal/mem"
)

// runSelf runs cfg to completion and returns the report and the loop's
// self-counters.
func runSelf(t *testing.T, cfg Config) ([]byte, SelfStats) {
	t.Helper()
	res, self, err := RunSelf(cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("run did not finish")
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data, self
}

// TestAwakeProgressMesh64 is the host-independent statement of what the
// skipping loop buys, in work counts against the strict loop on the same
// configuration, with byte-identical reports. On the 64-core arm the skipping
// loop visits at most a quarter of the tile-cycles it ticks (the strict loop
// visits all of them, and so did the skipping loop while it asked every tile
// NextEvent). On the idle arm — eight cores behind one channel with
// 160-cycle line transfers, no prefetcher, every ROB head waiting on DRAM —
// it jumps the global clock as well: measured 28,647 Ticks for 178,883
// cycles and 20,816 tile visits against the strict loop's 1,431,064.
func TestAwakeProgressMesh64(t *testing.T) {
	t.Run("mesh64", func(t *testing.T) {
		t.Parallel()
		on, _ := progressPair(t, mesh64Arm())
		if tileCycles := on.Ticks * 64; 4*on.TileVisits > tileCycles || 4*on.SliceVisits > tileCycles {
			t.Errorf("skipping loop visited %d tiles and %d slices in %d ticked tile-cycles, want <= 25%% each: %+v",
				on.TileVisits, on.SliceVisits, tileCycles, on)
		}
		if on.Wakes[WakeMesh] == 0 || on.Wakes[WakeDRAMFill] == 0 || on.Wakes[WakeTimed] == 0 {
			t.Errorf("a wake source never fired: %+v", on)
		}
	})
	t.Run("idle-1ch", func(t *testing.T) {
		t.Parallel()
		cfg := DefaultConfig(8, 1, 8)
		cfg.InstrPerCore, cfg.WarmupInstr = 6000, 0
		cfg.TransferCycles = 160
		on, off := progressPair(t, cfg)
		// The strict loop ticks once per simulated cycle.
		if cycles := off.Ticks; 4*on.Ticks > cycles || on.Ticks+on.CyclesSkipped != cycles {
			t.Errorf("skipping loop took %d Ticks and jumped %d cycles in %d skips for %d cycles, want Ticks <= cycles/4: %+v",
				on.Ticks, on.CyclesSkipped, on.GlobalSkips, cycles, on)
		}
		if 20*on.TileVisits > off.TileVisits {
			t.Errorf("skipping loop made %d tile visits against the strict loop's %d, want <= 5%%",
				on.TileVisits, off.TileVisits)
		}
	})
}

// progressPair runs cfg under the skipping loop and under the strict loop,
// requires byte-identical reports and a strict loop that visits everything
// every cycle, and returns both loops' self-counters.
func progressPair(t *testing.T, cfg Config) (on, off SelfStats) {
	t.Helper()
	cores := uint64(len(cfg.Workload))
	onJSON, on := runSelf(t, cfg)
	cfg.DisableSkip = true
	offJSON, off := runSelf(t, cfg)
	if !bytes.Equal(onJSON, offJSON) {
		t.Fatalf("skip and noskip reports differ: %s", firstDiff(onJSON, offJSON))
	}
	if off.TileVisits != off.Ticks*cores || off.SliceVisits != off.Ticks*cores || off.TileVisitsCoreTicked != off.TileVisits {
		t.Errorf("strict loop must visit and tick everything every cycle: %+v", off)
	}
	if off.GlobalSkips != 0 || off.Wakes != [NumWakeSources]uint64{} || off.Reparks != 0 {
		t.Errorf("strict loop used the awake sets: %+v", off)
	}
	if on.TileVisitsCoreTicked == 0 || on.TileVisitsCoreTicked > on.TileVisits {
		t.Errorf("core ticks %d outside (0, tile visits %d]", on.TileVisitsCoreTicked, on.TileVisits)
	}
	return on, off
}

// TestAwakeTickDirect drives Tick alone — no Step, so no jump of the global
// clock and no settle point but collect — the way tests and the traced
// bench loop do, and requires the harvest to match the strict loop's.
func TestAwakeTickDirect(t *testing.T) {
	for _, arm := range []string{"mesh16-1ch", "stall-hermes"} {
		cfg := skipMatrix()[arm]
		t.Run(arm, func(t *testing.T) {
			t.Parallel()
			var reports [2][]byte
			for k, noskip := range []bool{false, true} {
				cfg.DisableSkip = noskip
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 12000; i++ {
					s.Tick()
				}
				res := s.collect()
				if reports[k], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(reports[0], reports[1]) {
				t.Fatalf("reports differ after 12000 direct Ticks: %s", firstDiff(reports[0], reports[1]))
			}
		})
	}
}

// tileCounters is what a tile's lazy settlement charges in bulk, plus the
// clocks its callees read.
type tileCounters struct {
	Cycles, ROBStall, FetchStall   uint64
	L1Clock, L2Clock               uint64
	L1MSHRFull, L2MSHRFull         uint64
	TLBAccesses, DTLBHits, L1DLoad uint64
}

func (s *System) tileCountersOf(i int) tileCounters {
	cs := s.cores[i].Stats()
	c := tileCounters{
		Cycles: cs.Cycles, ROBStall: cs.ROBStallCycles, FetchStall: cs.FetchStallCycles, L1DLoad: cs.L1DAccesses,
		L1Clock: s.l1d[i].Cycle(), L2Clock: s.l2[i].Cycle(),
		L1MSHRFull: s.l1d[i].Stats().MSHRFullEvents, L2MSHRFull: s.l2[i].Stats().MSHRFullEvents,
	}
	h := s.ports[i].tlb
	c.TLBAccesses, c.DTLBHits = h.Stats().Accesses, h.Stats().DTLBHits
	return c
}

// TestAwakeWakeSettles runs a skipping system and the strict loop in
// lockstep, one Tick at a time, and checks every settlement of a sleeper that
// owed at least two cycles: right after the Tick that woke it — or, for a
// slice parked on a DRAM queue, the Tick whose dequeue charged it in its
// sleep — the target's clocks and bulk-charged counters (core cycles and
// ROB/fetch stall cycles, MSHR-full events, TLB accesses; for slices charged
// off a DRAM queue, the controller's RQ/WQ-full events) equal the strict
// loop's. A parked direct-DRAM head is a sleeper too: after the Tick whose
// dequeue charged it, the controller's RQ/WQ-full events equal the strict
// loop's, whose tile walk offered that head on every cycle. Every wake source
// an arm provokes must be seen, and for DRAM dequeues both a parked LLC head
// and a parked writeback, a slice that found room at its turn and one that
// found the queue full again and slept on.
func TestAwakeWakeSettles(t *testing.T) {
	const minOwed = 2
	tight := []string{"tile/mesh", "tile/timed", "slice/mesh", "slice/dram-fill", "slice/timed", "pop/head", "pop/wb"}
	arms := []struct {
		oracleArm
		want []string
	}{
		{tightArms()[0], tight},
		{tightArms()[1], append(tight, "tile/hermes-fill", "head/popped")},
		// The L1 misses of the irregular mix fill their direct-DRAM queues:
		// a tile asleep on its refused bypass route wakes on the queue's pop.
		{hermesIrrArm(), []string{"tile/mesh", "tile/timed", "tile/hermes-fill", "tile/dram-pop", "slice/dram-fill", "head/popped"}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			skip, err1 := arm.build(1, false)
			ref, err2 := arm.build(1, true)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			n := len(skip.cores)
			type sleeper struct {
				asleep   bool
				owed     uint64
				head, wb bool
			}
			tiles, slices := make([]sleeper, n), make([]sleeper, n)
			parked := make([]bool, n)
			seen := map[string]int{}
			// settledDRAM settles every sleeper of the skipping run and
			// compares the controller's bulk-charged counters.
			settledDRAM := func(cy uint64, what string) {
				t.Helper()
				skip.settleAll()
				got, want := skip.dram.Stats(), ref.dram.Stats()
				if got.RQFullEvents != want.RQFullEvents || got.WQFullEvents != want.WQFullEvents {
					t.Fatalf("cycle %d: after a dequeue charged %s: RQ/WQ full %d/%d, want %d/%d",
						cy, what, got.RQFullEvents, got.WQFullEvents, want.RQFullEvents, want.WQFullEvents)
				}
			}
			for cy := uint64(0); cy < 40000; cy++ {
				for i := 0; i < n; i++ {
					tiles[i] = sleeper{asleep: skip.awake.tiles.asleep(i), owed: cy - min(cy, skip.l1d[i].Cycle()+1)}
					head, wb := skip.llc[i].LowerWaits()
					slices[i] = sleeper{asleep: skip.awake.slices.asleep(i), owed: cy - min(cy, skip.llc[i].Cycle()+1),
						head: head != nil, wb: wb != nil}
					parked[i] = skip.headIsParked(i)
				}
				before := skip.SelfStats()
				skip.Tick()
				ref.Tick()
				after := skip.SelfStats()
				source := ""
				for w := WakeSource(0); w < NumWakeSources; w++ {
					if after.Wakes[w] == before.Wakes[w] {
						continue
					}
					if source != "" {
						source = "mixed" // several sources this cycle: check, do not attribute
						break
					}
					source = w.String()
				}
				for i := 0; i < n; i++ {
					if tiles[i].asleep && !skip.awake.tiles.asleep(i) && tiles[i].owed >= minOwed {
						if got, want := skip.tileCountersOf(i), ref.tileCountersOf(i); got != want {
							t.Fatalf("cycle %d: tile %d woken (%s) owing %d cycles:\n got:  %+v\n want: %+v",
								cy, i, source, tiles[i].owed, got, want)
						}
						seen["tile/"+source]++
					}
					// A parked head that a dequeue charged is ready for the
					// next tile walk.
					if parked[i] && !skip.headIsParked(i) {
						seen["head/popped"]++
						settledDRAM(cy, fmt.Sprintf("tile %d's direct-DRAM head", i))
					}
					// Only a dequeue charges a slice and leaves it asleep.
					popped := slices[i].asleep && skip.awake.slices.asleep(i) && skip.llc[i].Cycle() == cy
					if slices[i].asleep && (popped || !skip.awake.slices.asleep(i)) && slices[i].owed >= minOwed {
						if popped {
							source = "popped"
						}
						if got, want := skip.llc[i].Cycle(), ref.llc[i].Cycle(); got != want {
							t.Fatalf("cycle %d: slice %d settled (%s) with clock %d, want %d", cy, i, source, got, want)
						}
						if got, want := skip.llc[i].Stats().MSHRFullEvents, ref.llc[i].Stats().MSHRFullEvents; got != want {
							t.Fatalf("cycle %d: slice %d settled (%s) with %d MSHR-full events, want %d", cy, i, source, got, want)
						}
						seen["slice/"+source]++
						if popped {
							if slices[i].head {
								seen["pop/head"]++
							}
							if slices[i].wb {
								seen["pop/wb"]++
							}
							// Everyone still asleep on the controller owes it
							// full events; settle them to compare its totals.
							settledDRAM(cy, fmt.Sprintf("slice %d", i))
						}
					}
				}
			}
			gotJSON, _ := json.Marshal(skip.collect())
			wantJSON, _ := json.Marshal(ref.collect())
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("lockstep runs end differently: %s", firstDiff(gotJSON, wantJSON))
			}
			if self := skip.SelfStats(); self.Wakes[WakeDRAMPop] == 0 || self.Reparks == 0 {
				t.Errorf("dequeues woke %d slices and left %d parked, want both", self.Wakes[WakeDRAMPop], self.Reparks)
			}
			for _, k := range arm.want {
				if seen[k] == 0 {
					t.Errorf("never saw a %s wake of a sleeper owing >= %d cycles (saw %v)", k, minOwed, seen)
				}
			}
		})
	}
}

// TestAwakeStallDiagnosis: a system in which nothing is awake, due or in
// flight while cores are unfinished can never finish — with lazy charging a
// missed wake ends like this. The run must say so: a panic naming the
// sleepers under clipdebug, a diagnosis on the Result otherwise, with the
// report itself unchanged. The test loses wakes the honest way: it drops
// every DRAM response, so each core ends up asleep on a fill that never comes.
func TestAwakeStallDiagnosis(t *testing.T) {
	cfg := skipMatrix()["clip"]
	cfg.MaxCycles = 200000
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(diagnosis string) {
		t.Helper()
		for _, want := range []string{"no component has work", "4 of 4 cores have not finished", "core 0:", "rob="} {
			if !strings.Contains(diagnosis, want) {
				t.Fatalf("diagnosis %q does not mention %q", diagnosis, want)
			}
		}
	}
	if invariant.Enabled {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("a dead system ran on without a panic")
			}
			check(fmt.Sprint(r))
		}()
	}
	s.dram.OnResponse(func(*mem.Response) {})
	for maxCycles := s.MaxCycles(); s.Step(maxCycles); {
	}
	res := s.collect()
	if res.Finished {
		t.Fatal("a system that lost every DRAM response finished")
	}
	check(res.Stall)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "no component") {
		t.Fatal("the diagnosis leaked into the report JSON")
	}
}

// TestAwakeProgressWatchdog: a lost wake need not leave the whole system dead.
// Here every DRAM response for core 0 is dropped, so core 0 ends up asleep on
// fills that never come while the other cores finish and keep replaying their
// traces — something is always awake, the dead-system diagnosis never fires,
// and without the watchdog the run would spin to its cycle bound. It must stop
// within two stall limits with an error naming the core and what it holds.
func TestAwakeProgressWatchdog(t *testing.T) {
	cfg := skipMatrix()["clip"]
	cfg.Workload = cfg.Workload[:2]
	cfg.MaxCycles = 8 * stallLimit
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.dram.OnResponse(func(r *mem.Response) {
		if r.Req.Core != 0 {
			s.dramPending.Push(s.dram.ChannelOf(r.Req.Addr), r)
		}
	})
	for maxCycles := s.MaxCycles(); s.Step(maxCycles); {
	}
	err = s.hung
	if err == nil {
		t.Fatalf("run ended at cycle %d (finished=%t) without an error", s.cycle, s.Finished())
	}
	if s.cycle > 2*stallLimit+stallLimit/2 {
		t.Errorf("watchdog fired only at cycle %d", s.cycle)
	}
	if !s.cores[1].Finished() || s.cores[0].Finished() {
		t.Errorf("core 0 finished=%t, core 1 finished=%t; want only core 1", s.cores[0].Finished(), s.cores[1].Finished())
	}
	for _, want := range []string{"core 0 retired nothing", "core 0:", "rob="} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// A healthy run of the same system is not disturbed.
	cfg.MaxCycles = 0
	if _, err := Run(cfg); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
}
