package cache

import (
	"testing"

	"clip/internal/mem"
)

// echoDRAM answers everything after a pseudo-random latency; used to drive
// conservation properties.
type echoDRAM struct {
	rng     *mem.PRNG
	pending []mem.Response
	sink    *Cache
	maxLat  uint64
}

func (d *echoDRAM) Issue(req *mem.Request) bool {
	if req.Type == mem.Writeback {
		return true
	}
	lat := 20 + d.rng.Uint64()%d.maxLat
	d.pending = append(d.pending, mem.Response{
		Req: *req, ServedBy: mem.LevelDRAM, DoneCycle: req.IssueCycle + lat,
	})
	return true
}

func (d *echoDRAM) tick(cy uint64) {
	rest := d.pending[:0]
	for _, r := range d.pending {
		if r.DoneCycle <= cy {
			r.DoneCycle = cy
			d.sink.Fill(&r)
		} else {
			rest = append(rest, r)
		}
	}
	d.pending = rest
}

// TestPropertyNoLostDemands drives a random demand/prefetch stream through a
// small cache and asserts conservation: every accepted demand load gets
// exactly one response, no phantom responses appear, and the cache drains
// completely.
func TestPropertyNoLostDemands(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := mem.NewPRNG(seed)
		d := &echoDRAM{rng: mem.NewPRNG(seed ^ 0xd), maxLat: 200}
		cfg := Config{Name: "prop", Level: mem.LevelL1, Sets: 8, Ways: 2,
			Latency: 3, MSHRs: 4, Ports: 2, InQ: 4}
		c := MustNew(cfg, d)
		d.sink = c

		issued := map[int]int{} // tag -> responses received
		var accepted int
		c.OnResponse(func(r *mem.Response) {
			// Store (write-allocate) responses propagate by design; only
			// loads carry ROB tags to account for.
			if r.Req.Type == mem.Load {
				issued[int(r.Req.ROBIndex)]++
			}
		})

		var cy uint64
		nextTag := 1
		for op := 0; op < 3000; op++ {
			// Random op mix: loads, stores, prefetches over a small space.
			addr := mem.Addr(rng.Uint64()%512) * mem.LineBytes
			switch rng.Intn(4) {
			case 0, 1:
				req := mem.Request{Addr: addr, IP: rng.Uint64() % 64, Type: mem.Load,
					IssueCycle: cy, ROBIndex: int16(nextTag)}
				if c.Issue(&req) {
					issued[nextTag] += 0 // mark as accepted
					accepted++
					nextTag++
				}
			case 2:
				c.Issue(&mem.Request{Addr: addr, Type: mem.Store, IssueCycle: cy,
					ROBIndex: -1})
			default:
				c.Issue(&mem.Request{Addr: addr, Type: mem.Prefetch,
					FillLevel: mem.LevelL1, IssueCycle: cy, ROBIndex: -1})
			}
			c.Tick(cy)
			d.tick(cy)
			cy++
		}
		// Drain.
		for i := 0; i < 5000; i++ {
			c.Tick(cy)
			d.tick(cy)
			cy++
		}
		for tag, n := range issued {
			if tag < 0 {
				continue
			}
			if n != 1 {
				t.Fatalf("seed %d: load tag %d received %d responses, want 1",
					seed, tag, n)
			}
		}
		if accepted == 0 {
			t.Fatalf("seed %d: nothing accepted", seed)
		}
		if c.MSHRInUse() != 0 {
			t.Fatalf("seed %d: %d MSHRs leaked", seed, c.MSHRInUse())
		}
	}
}

// TestPropertyHitAfterFill: any line that was filled and not evicted must
// hit. Drives a single-set cache deterministically.
func TestPropertyHitAfterFill(t *testing.T) {
	d := &echoDRAM{rng: mem.NewPRNG(3), maxLat: 10}
	cfg := Config{Name: "prop2", Level: mem.LevelL1, Sets: 1, Ways: 8,
		Latency: 1, MSHRs: 8, Ports: 2, InQ: 8}
	c := MustNew(cfg, d)
	d.sink = c
	var responses []mem.Response
	c.OnResponse(func(r *mem.Response) { responses = append(responses, *r) })

	var cy uint64
	run := func(n int) {
		for i := 0; i < n; i++ {
			c.Tick(cy)
			d.tick(cy)
			cy++
		}
	}
	// Fill 8 distinct lines (exactly the set capacity).
	for i := 0; i < 8; i++ {
		c.Issue(&mem.Request{Addr: mem.Addr(i * mem.LineBytes), Type: mem.Load,
			IssueCycle: cy, ROBIndex: int16(i)})
		run(40)
	}
	responses = nil
	// Re-touch all 8: every one must be an L1 hit.
	for i := 0; i < 8; i++ {
		c.Issue(&mem.Request{Addr: mem.Addr(i * mem.LineBytes), Type: mem.Load,
			IssueCycle: cy, ROBIndex: int16(100 + i)})
		run(10)
	}
	if len(responses) != 8 {
		t.Fatalf("got %d responses, want 8", len(responses))
	}
	for _, r := range responses {
		if r.ServedBy != mem.LevelL1 {
			t.Fatalf("resident line served by %v", r.ServedBy)
		}
	}
}
