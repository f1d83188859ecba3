package cpu

import (
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
	"clip/internal/trace"
)

// newWheelCore is a core whose ROB the wheel property test fills by hand: no
// loads, and fetch stalled for good so that dispatch never opens the horizon
// and NextEvent reports the wheel's own deadline.
func newWheelCore(t *testing.T, robSize int) *Core {
	t.Helper()
	gen := trace.MustNew(trace.Config{
		Name:           "wheel",
		Sites:          []trace.SiteSpec{{Class: trace.PatStream, StrideLines: 1, Weight: 1}},
		FootprintLines: 64, LoadFrac: 0.1, ExecLatMean: 1,
	})
	cfg := DefaultConfig()
	cfg.ROBSize = robSize
	c, err := New(0, cfg, gen, &skipMem{latency: 1, level: mem.LevelL1}, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	c.fetchStallUntil = mem.NoEvent
	return c
}

// naiveWheel is the reference the timing wheel is checked against: the due
// cycle of every filed slot, by cycle and by slot.
type naiveWheel struct {
	at   map[uint64][]int
	live map[int]uint64
}

func (w *naiveWheel) file(slot int, at uint64) {
	w.at[at] = append(w.at[at], slot)
	w.live[slot] = at
}

// fire removes and returns the slots due at cy.
func (w *naiveWheel) fire(cy uint64) []int {
	due := w.at[cy]
	delete(w.at, cy)
	for _, slot := range due {
		delete(w.live, slot)
	}
	return due
}

// earliest is the earliest due cycle (NoEvent when nothing is filed).
func (w *naiveWheel) earliest() uint64 {
	next := mem.NoEvent
	for _, at := range w.live {
		next = min(next, at)
	}
	return next
}

// wheelLatency draws a completion distance: mostly short, with the horizon's
// edges and beyond-horizon distances (the overflow chain) mixed in.
func wheelLatency(rng *mem.PRNG) uint64 {
	switch rng.Intn(10) {
	case 0:
		return wheelSize - 1 + uint64(rng.Intn(3)) // the last bucket, and the first two overflow distances
	case 1:
		return wheelSize + uint64(rng.Intn(2*wheelSize))
	case 2:
		return 1 // shares next cycle's bucket with whatever else lands there
	default:
		return 1 + uint64(rng.Intn(300))
	}
}

// restoreWheelCore saves c and loads the image into a fresh core.
func restoreWheelCore(t *testing.T, c *Core) *Core {
	t.Helper()
	w := snapshot.NewSaver(0)
	c.State(w)
	img, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewLoader(img)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newWheelCore(t, c.robSize)
	fresh.State(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestWheelMatchesNaive drives the intrusive wheel with random schedule /
// tick / SkipCycles sequences — completions in the same bucket, a whole
// revolution ahead, and beyond the horizon (overflow, refiled on the way) —
// and checks it every ticked cycle against a map[cycle][]slot: exactly the
// due slots' done bits are set, on their exact cycle; wheelLive is the number
// filed; earliestWheel and NextEvent never overshoot the earliest due cycle
// (so a SkipCycles to the horizon cannot jump a completion); and a core
// restored mid-sequence from its image, whose chains are refiled from doneAt,
// carries on in lockstep with the same reference.
func TestWheelMatchesNaive(t *testing.T) {
	for _, robSize := range []int{48, 512} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := mem.NewPRNG(seed)
			c := newWheelCore(t, robSize)
			ref := &naiveWheel{at: map[uint64][]int{}, live: map[int]uint64{}}
			fired, skipped, restores, beyond := 0, 0, 0, 0
			for cy := uint64(1); cy < 40_000; cy++ {
				// Tick without dispatch: the test fills the ROB itself.
				c.cycle, c.wake = cy, false
				c.completeALU()
				due := ref.fire(cy)
				fired += len(due)
				for slot, at := range ref.live {
					if at < cy {
						t.Fatalf("rob%d seed %d cycle %d: slot %d was due at %d and never fired", robSize, seed, cy, slot, at)
					}
				}
				for slot := 0; slot < robSize; slot++ {
					if !bitOf(c.validW, slot) {
						continue
					}
					_, pending := ref.live[slot]
					if done := bitOf(c.doneW, slot); done == pending {
						t.Fatalf("rob%d seed %d cycle %d: slot %d done=%v, reference pending=%v (due now: %v)",
							robSize, seed, cy, slot, done, pending, due)
					}
				}
				c.accountStall()
				c.retire()
				c.issueLoads()

				for k := rng.Intn(5); k > 0 && c.count < robSize; k-- {
					slot := c.tail
					c.initSlot(slot, &trace.Instr{Op: trace.OpALU})
					if c.tail++; c.tail == robSize {
						c.tail = 0
					}
					c.count++
					lat := wheelLatency(rng)
					if lat >= wheelSize {
						beyond++
					}
					c.schedule(slot, cy+lat)
					ref.file(slot, cy+lat)
				}

				if rng.Bool(0.002) {
					c = restoreWheelCore(t, c)
					restores++
				}

				earliest := ref.earliest()
				if c.wheelLive != len(ref.live) {
					t.Fatalf("rob%d seed %d cycle %d: wheelLive %d, reference holds %d", robSize, seed, cy, c.wheelLive, len(ref.live))
				}
				if len(ref.live) > 0 && (c.earliestWheel <= cy || c.earliestWheel > earliest) {
					t.Fatalf("rob%d seed %d cycle %d: earliestWheel %d outside (%d, %d]", robSize, seed, cy, c.earliestWheel, cy, earliest)
				}
				next := c.NextEvent(cy + 1)
				switch {
				case c.count == 0 || bitOf(c.doneW, c.head):
					if next != cy+1 {
						t.Fatalf("rob%d seed %d cycle %d: NextEvent %d with a retirable head", robSize, seed, cy, next)
					}
				case next < cy+1 || next > earliest:
					t.Fatalf("rob%d seed %d cycle %d: NextEvent %d outside [%d, %d]", robSize, seed, cy, next, cy+1, earliest)
				}
				if next > cy+1 && !c.Woken() && rng.Bool(0.7) {
					c.SkipCycles(cy+1, next-(cy+1))
					skipped += int(next - (cy + 1))
					cy = next - 1
				}
			}
			if fired < 1_000 || skipped == 0 || restores == 0 || beyond < 100 {
				t.Fatalf("rob%d seed %d: thin coverage: %d completions, %d skipped cycles, %d restores, %d beyond the horizon",
					robSize, seed, fired, skipped, restores, beyond)
			}
		}
	}
}
