package cache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"clip/internal/mem"
	"clip/internal/snapshot"
)

// acceptLower takes every miss and never fills: the test delivers fills itself.
type acceptLower struct{}

func (acceptLower) Issue(*mem.Request) bool { return true }

// restoreCache saves c, loads the image into into (a fresh cache of the same
// configuration, or c itself with its chains still parked) and checks that
// into saves the same bytes: the image holds the waiter chains, not the pool
// they sit in, and only the prefetch requests of live prefetch MSHRs, the
// rest restoring as zero.
func restoreCache(t *testing.T, c, into *Cache) *Cache {
	t.Helper()
	save := func(c *Cache) []byte {
		w := snapshot.NewSaver(0)
		c.State(w)
		img, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	img := save(c)
	r, err := snapshot.NewLoader(img)
	if err != nil {
		t.Fatal(err)
	}
	into.State(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if again := save(into); !bytes.Equal(img, again) {
		t.Fatalf("a restored cache saves a different image (%d bytes, was %d)", len(again), len(img))
	}
	for i := range into.mshrPfReq {
		if !(into.mshrValid.Test(i) && into.mshrPF.Test(i)) && into.mshrPfReq[i] != (mem.Request{}) {
			t.Fatalf("MSHR %d holds no prefetch, yet its restored prefetch request is %+v", i, into.mshrPfReq[i])
		}
	}
	return into
}

// poolCounts returns the number of parked and of free pool slots.
func poolCounts(c *Cache) (parked, free int) {
	for i := range c.waitHead {
		parked += c.waitCount(i)
	}
	for j := c.waitFree; j >= 0; j = c.waiters[j].next {
		free++
	}
	return parked, free
}

// TestWaitersMatchNaive drives the MSHR waiter pool with merge storms — more
// than eight waiters on one MSHR, interleaved across MSHRs, with loads,
// stores, owned prefetches and prefetch-allocated entries — and checks every
// fill against a map[int][]waiter reference keyed by MSHR: the responses come
// out in arrival order, DemandMissLatency adds up each load's own wait, and
// no pool slot is lost or shared. Midway through storms the cache is saved
// and restored, into itself or into a fresh cache whose smaller
// construction-time pool must grow to take the chains back. At L2 a prefetch
// filling L1 answers upward; at L1 it terminates.
func TestWaitersMatchNaive(t *testing.T) {
	for _, level := range []mem.Level{mem.LevelL1, mem.LevelL2} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", level, seed), func(t *testing.T) {
				cfg := Config{Name: "storm", Level: level, Sets: 16, Ways: 4,
					MSHRs: 6, Ports: 1, Policy: "lru"}
				c := MustNew(cfg, acceptLower{})
				rng := mem.NewPRNG(seed)
				ref := map[int][]waiter{}
				refPF := map[int]mem.Request{} // prefetch-allocated entries
				var latSum, latCount uint64
				nextLine := uint64(1)
				longest, restores, grown, fills := 0, 0, 0, 0

				for cy := uint64(1); cy < 6000; cy++ {
					c.cycle = cy
					switch r := rng.Intn(100); {
					case r < 15 && c.mshrValid.FirstClear() >= 0:
						// A miss on a fresh line allocates the lowest free MSHR.
						req := stormReq(rng, nextLine, cy, true)
						nextLine++
						if !c.lookup(&req, true) {
							t.Fatalf("cycle %d: allocation refused", cy)
						}
						i := c.mshrFind(req.Addr)
						if req.Type == mem.Prefetch {
							refPF[i] = req
						} else {
							ref[i] = append(ref[i], waiter{req: req, arrived: cy})
						}
					case r < 85 && c.MSHRInUse() > 0:
						// A burst of merges onto in-flight lines.
						for k := 1 + rng.Intn(4); k > 0; k-- {
							i := randomMSHR(c, rng)
							req := stormReq(rng, uint64(c.mshrLine[i].LineID()), cy, false)
							if !c.lookup(&req, true) {
								t.Fatalf("cycle %d: merge refused", cy)
							}
							if req.Type != mem.Prefetch || req.Owned {
								ref[i] = append(ref[i], waiter{req: req, arrived: cy})
							}
						}
					case c.MSHRInUse() > 0:
						i := randomMSHR(c, rng)
						var want []mem.Request
						for _, w := range ref[i] {
							if w.req.Type == mem.Load {
								latSum += cy - w.arrived
								latCount++
							}
							if w.req.Type != mem.Prefetch || w.req.FillLevel < level {
								want = append(want, w.req)
							}
						}
						if pf, ok := refPF[i]; ok && pf.FillLevel < level {
							want = append(want, pf)
						}
						longest = max(longest, len(ref[i]))
						delete(ref, i)
						delete(refPF, i)
						c.Fill(&mem.Response{Req: mem.Request{Addr: c.mshrLine[i], Type: mem.Load},
							ServedBy: mem.LevelDRAM, DoneCycle: cy})
						fills++
						if len(c.respQ) != len(want) {
							t.Fatalf("cycle %d: MSHR %d answered %d requests, reference %d", cy, i, len(c.respQ), len(want))
						}
						for k := range want {
							if c.respQ[k].Req != want[k] {
								t.Fatalf("cycle %d: MSHR %d response %d is %+v, reference %+v", cy, i, k, c.respQ[k].Req, want[k])
							}
						}
						c.respQ = c.respQ[:0]
						if acc := c.stats.DemandMissLatency; acc.Sum != latSum || acc.Count != latCount {
							t.Fatalf("cycle %d: DemandMissLatency %d over %d loads, reference %d over %d",
								cy, acc.Sum, acc.Count, latSum, latCount)
						}
					}

					for i := range c.waitHead {
						if n := c.waitCount(i); n != len(ref[i]) {
							t.Fatalf("cycle %d: MSHR %d holds %d waiters, reference %d", cy, i, n, len(ref[i]))
						}
					}
					if parked, free := poolCounts(c); parked+free != len(c.waiters) {
						t.Fatalf("cycle %d: %d parked + %d free slots in a pool of %d", cy, parked, free, len(c.waiters))
					}
					if rng.Bool(0.01) {
						if into := MustNew(cfg, acceptLower{}); rng.Bool(0.5) {
							c = restoreCache(t, c, into)
							if len(c.waiters) > len(MustNew(cfg, acceptLower{}).waiters) {
								grown++
							}
						} else {
							c = restoreCache(t, c, c)
						}
						restores++
					}
				}
				if fills < 500 || longest <= 8 || restores == 0 || grown == 0 {
					t.Fatalf("thin coverage: %d fills, longest chain %d, %d restores (%d into a grown pool)",
						fills, longest, restores, grown)
				}
			})
		}
	}
}

// stormReq draws a request for line: mostly loads, some stores, and
// prefetches filling L1 — owned ones (an upper MSHR waits on them) when
// merging, plain ones when allocating.
func stormReq(rng *mem.PRNG, line, cy uint64, alloc bool) mem.Request {
	req := mem.Request{Addr: mem.Addr(line << mem.LineShift), IP: rng.Uint64() % 64,
		Type: mem.Load, IssueCycle: cy, ROBIndex: int16(rng.Intn(128))}
	switch r := rng.Intn(10); {
	case r < 2:
		req.Type, req.ROBIndex = mem.Store, -1
	case r < 3:
		req.Type, req.FillLevel, req.Owned, req.ROBIndex = mem.Prefetch, mem.LevelL1, !alloc, -1
	}
	return req
}

// randomMSHR picks one occupied MSHR.
func randomMSHR(c *Cache, rng *mem.PRNG) int {
	k := rng.Intn(c.MSHRInUse())
	i := c.mshrValid.First()
	for ; k > 0; k-- {
		i = c.mshrValid.Next(i + 1)
	}
	return i
}

// TestTriggerColumnBelowLLCOnly: the trigger column, and so OnPFEvict, exist
// only below the LLC; the LLC's slab is the tags and the three way bitmaps.
func TestTriggerColumnBelowLLCOnly(t *testing.T) {
	for _, level := range []mem.Level{mem.LevelL1, mem.LevelL2, mem.LevelLLC} {
		c := MustNew(smallConfig("c", level), nil)
		lines, sets := c.cfg.Sets*c.cfg.Ways, c.cfg.Sets
		want := 2*lines + 3*sets
		if level == mem.LevelLLC {
			want = lines + 3*sets
		}
		if c.SlabWords() != want {
			t.Errorf("%v: slab of %d words, want %d", level, c.SlabWords(), want)
		}
		func() {
			defer func() {
				if r := recover(); (r != nil) != (level == mem.LevelLLC) {
					t.Errorf("%v: OnPFEvict panic = %v", level, r)
				}
			}()
			c.OnPFEvict(func(int, uint64, mem.Addr) {})
		}()
	}
}

// TestArrayGrowthIsolation: NewArray carves every cache's columns from
// shared slabs, each ending at its length, so a merge storm that outgrows
// cache 0's waiter pool moves the pool instead of writing into cache 1's.
// SlabWords still counts one cache's line state.
func TestArrayGrowthIsolation(t *testing.T) {
	for _, level := range []mem.Level{mem.LevelL1, mem.LevelL2, mem.LevelLLC} {
		t.Run(level.String(), func(t *testing.T) {
			cfg := Config{Level: level, Sets: 16, Ways: 4, Latency: 1, MSHRs: 4, Policy: "mockingjay", Ports: 1}
			cs, err := NewArray(nil, cfg, 2, func(int) Lower { return acceptLower{} })
			if err != nil {
				t.Fatal(err)
			}
			words := 16*4 + 3*16
			if level < mem.LevelLLC {
				words += 16 * 4 // the trigger column
			}
			if got := cs[0].SlabWords(); got != words {
				t.Errorf("SlabWords = %d, want one cache's %d", got, words)
			}
			before := append([]waiter(nil), cs[1].waiters...)
			n := len(cs[0].waiters)
			for len(cs[0].waiters) < 4*n {
				cs[0].growWaiters()
			}
			for j := range cs[0].waiters {
				cs[0].waiters[j] = waiter{arrived: ^uint64(0), next: -2}
			}
			if !slices.Equal(cs[1].waiters, before) {
				t.Error("growing cache 0's waiter pool wrote into cache 1's")
			}
		})
	}
}

// TestRespQGrowsFromArena: a response queue that outgrows its carved slots
// moves, responses in order, into a slab from its cache's arena, so an
// array rebuilt on the rewound arena grows the same queue into the same
// memory.
func TestRespQGrowsFromArena(t *testing.T) {
	cfg := Config{Level: mem.LevelL1, Sets: 16, Ways: 4, Latency: 1, MSHRs: 4, Policy: "mockingjay", Ports: 1}
	a := new(mem.Arena)
	fill := func() []mem.Response {
		cs, err := NewArray(a, cfg, 2, func(int) Lower { return acceptLower{} })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*mem.RingSlots; i++ {
			cs[0].respond(&mem.Request{Addr: mem.Addr(i)}, mem.LevelL2, uint64(i), false, false)
		}
		return cs[0].respQ
	}
	first := fill()
	for i := range first {
		if r := first[i]; r.Req.Addr != mem.Addr(i) || r.DoneCycle != uint64(i) {
			t.Fatalf("response %d is %+v after the queue grew", i, r)
		}
	}
	a.Rewind()
	if again := fill(); &again[0] != &first[0] {
		t.Error("the rebuilt cache's queue did not grow into the slab its arena recorded")
	}
}
