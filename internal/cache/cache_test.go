package cache

import (
	"testing"

	"clip/internal/mem"
)

// fakeDRAM accepts everything and fills after a fixed latency.
type fakeDRAM struct {
	latency uint64
	pending []mem.Response
	sink    *Cache
	issued  int
}

func (d *fakeDRAM) Issue(req *mem.Request) bool {
	d.issued++
	if req.Type == mem.Writeback {
		return true
	}
	d.pending = append(d.pending, mem.Response{
		Req: *req, ServedBy: mem.LevelDRAM, DoneCycle: req.IssueCycle + d.latency,
	})
	return true
}

func (d *fakeDRAM) tick(cycle uint64) {
	rest := d.pending[:0]
	for _, r := range d.pending {
		if r.DoneCycle <= cycle {
			r.DoneCycle = cycle
			d.sink.Fill(&r)
		} else {
			rest = append(rest, r)
		}
	}
	d.pending = rest
}

func smallConfig(name string, level mem.Level) Config {
	return Config{Name: name, Level: level, Sets: 16, Ways: 4,
		Latency: 2, MSHRs: 8, Ports: 2, InQ: 8, Policy: "lru"}
}

func collect(c *Cache) *[]mem.Response {
	var got []mem.Response
	c.OnResponse(func(r *mem.Response) { got = append(got, *r) })
	return &got
}

func runRange(c *Cache, d *fakeDRAM, from, to uint64) {
	for cy := from; cy < to; cy++ {
		c.Tick(cy)
		if d != nil {
			d.tick(cy)
		}
	}
}

func run(c *Cache, d *fakeDRAM, cycles uint64) { runRange(c, d, 0, cycles) }

func loadReq(addr mem.Addr, ip uint64, cycle uint64) *mem.Request {
	return &mem.Request{Addr: addr.Line(), IP: ip, Type: mem.Load,
		IssueCycle: cycle, ROBIndex: 1}
}

func TestConfigValidation(t *testing.T) {
	bad := smallConfig("x", mem.LevelL1)
	bad.Sets = 3 // not a power of two
	if _, err := New(bad, nil); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	bad = smallConfig("x", mem.LevelL1)
	bad.MSHRs = 0
	if _, err := New(bad, nil); err == nil {
		t.Fatal("zero MSHRs accepted")
	}
	bad = smallConfig("x", mem.LevelL1)
	bad.Policy = "belady"
	if _, err := New(bad, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMissThenHit(t *testing.T) {
	d := &fakeDRAM{latency: 50}
	c := MustNew(smallConfig("l1", mem.LevelL1), d)
	d.sink = c
	got := collect(c)

	if !c.Issue(loadReq(0x1000, 0xA, 0)) {
		t.Fatal("issue rejected")
	}
	run(c, d, 100)
	if len(*got) != 1 {
		t.Fatalf("want 1 response, got %d", len(*got))
	}
	if (*got)[0].ServedBy != mem.LevelDRAM {
		t.Fatalf("first access served by %v, want DRAM", (*got)[0].ServedBy)
	}
	// Second access: hit.
	*got = (*got)[:0]
	c.Issue(loadReq(0x1000, 0xA, 100))
	runRange(c, d, 100, 130)
	if len(*got) != 1 || (*got)[0].ServedBy != mem.LevelL1 {
		t.Fatalf("second access not an L1 hit: %+v", *got)
	}
	s := c.Stats()
	if s.DemandMisses != 1 || s.DemandHits != 1 {
		t.Fatalf("stats misses=%d hits=%d", s.DemandMisses, s.DemandHits)
	}
}

func TestHitLatencyApplied(t *testing.T) {
	cfg := smallConfig("l1", mem.LevelL1)
	cfg.Latency = 5
	d := &fakeDRAM{latency: 10}
	c := MustNew(cfg, d)
	d.sink = c
	got := collect(c)
	c.Issue(loadReq(0x40, 1, 0))
	run(c, d, 40)
	*got = (*got)[:0]
	c.Issue(loadReq(0x40, 1, 40))
	runRange(c, d, 40, 80)
	if len(*got) != 1 {
		t.Fatalf("no hit response")
	}
	if lat := (*got)[0].Latency(); lat < 5 {
		t.Fatalf("hit latency %d < configured 5", lat)
	}
}

func TestMSHRMerging(t *testing.T) {
	d := &fakeDRAM{latency: 60}
	c := MustNew(smallConfig("l1", mem.LevelL1), d)
	d.sink = c
	got := collect(c)
	// Two loads to the same line while the first is outstanding.
	c.Issue(loadReq(0x2000, 1, 0))
	c.Issue(loadReq(0x2000, 2, 0))
	run(c, d, 100)
	if len(*got) != 2 {
		t.Fatalf("want 2 responses (merged), got %d", len(*got))
	}
	if d.issued != 1 {
		t.Fatalf("lower saw %d requests, want 1 (merge)", d.issued)
	}
}

func TestPrefetchFillAndUseful(t *testing.T) {
	d := &fakeDRAM{latency: 30}
	c := MustNew(smallConfig("l1", mem.LevelL1), d)
	d.sink = c
	got := collect(c)
	pf := mem.Request{Addr: 0x3000, IP: 0xB, Type: mem.Prefetch,
		FillLevel: mem.LevelL1, IssueCycle: 0}
	c.Issue(&pf)
	run(c, d, 60)
	if c.Stats().PFFills != 1 {
		t.Fatalf("PFFills = %d, want 1", c.Stats().PFFills)
	}
	// Demand touch: counts useful, served at L1, flagged WasPrefetch.
	c.Issue(loadReq(0x3000, 0xC, 60))
	runRange(c, d, 60, 80)
	if len(*got) != 1 || (*got)[0].ServedBy != mem.LevelL1 || !(*got)[0].WasPrefetch {
		t.Fatalf("demand on prefetched line: %+v", *got)
	}
	if c.Stats().PFUseful != 1 {
		t.Fatalf("PFUseful = %d, want 1", c.Stats().PFUseful)
	}
	// Second touch must not double-count.
	c.Issue(loadReq(0x3000, 0xC, 80))
	runRange(c, d, 80, 100)
	if c.Stats().PFUseful != 1 {
		t.Fatalf("PFUseful double-counted: %d", c.Stats().PFUseful)
	}
}

func TestLatePrefetchMerge(t *testing.T) {
	d := &fakeDRAM{latency: 80}
	c := MustNew(smallConfig("l1", mem.LevelL1), d)
	d.sink = c
	got := collect(c)
	c.Issue(&mem.Request{Addr: 0x4000, IP: 0xB, Type: mem.Prefetch,
		FillLevel: mem.LevelL1})
	// Demand arrives while prefetch is still in flight.
	for cy := uint64(0); cy < 10; cy++ {
		c.Tick(cy)
		d.tick(cy)
	}
	c.Issue(loadReq(0x4000, 0xC, 10))
	runRange(c, d, 10, 200)
	if c.Stats().PFLate != 1 {
		t.Fatalf("PFLate = %d, want 1", c.Stats().PFLate)
	}
	if len(*got) != 1 || !(*got)[0].LatePF {
		t.Fatalf("merged demand response: %+v", *got)
	}
}

func TestTwoLevelPrefetchPropagation(t *testing.T) {
	d := &fakeDRAM{latency: 40}
	l2 := MustNew(smallConfig("l2", mem.LevelL2), d)
	d.sink = l2
	l1 := MustNew(smallConfig("l1", mem.LevelL1), l2)
	l2.OnResponse(func(r *mem.Response) { l1.Fill(r) })
	got := collect(l1)

	// L1 prefetch with FillLevel L1 must install in both L1 and L2.
	l1.Issue(&mem.Request{Addr: 0x5000, IP: 0xB, Type: mem.Prefetch,
		FillLevel: mem.LevelL1})
	for cy := uint64(0); cy < 100; cy++ {
		l1.Tick(cy)
		l2.Tick(cy)
		d.tick(cy)
	}
	if !l1.Probe(0x5000) {
		t.Fatal("prefetch did not fill L1")
	}
	if !l2.Probe(0x5000) {
		t.Fatal("prefetch did not fill L2")
	}
	// Demand at L1 is now a hit.
	l1.Issue(loadReq(0x5000, 1, 100))
	for cy := uint64(100); cy < 120; cy++ {
		l1.Tick(cy)
		l2.Tick(cy)
		d.tick(cy)
	}
	if len(*got) != 1 || (*got)[0].ServedBy != mem.LevelL1 {
		t.Fatalf("demand after prefetch: %+v", *got)
	}
}

func TestTwoLevelDemandPath(t *testing.T) {
	d := &fakeDRAM{latency: 40}
	l2cfg := smallConfig("l2", mem.LevelL2)
	l2cfg.Sets = 64 // larger than L1 so the L1 conflict set fits
	l2 := MustNew(l2cfg, d)
	d.sink = l2
	l1 := MustNew(smallConfig("l1", mem.LevelL1), l2)
	l2.OnResponse(func(r *mem.Response) { l1.Fill(r) })
	got := collect(l1)

	l1.Issue(loadReq(0x6000, 1, 0))
	for cy := uint64(0); cy < 100; cy++ {
		l1.Tick(cy)
		l2.Tick(cy)
		d.tick(cy)
	}
	if len(*got) != 1 || (*got)[0].ServedBy != mem.LevelDRAM {
		t.Fatalf("first access: %+v", *got)
	}
	// Evict from tiny L1 by filling the same set; then L2 should still hit.
	set0Line := mem.Addr(0x6000)
	for i := 1; i <= 5; i++ {
		// Same set: stride = sets * lineBytes = 16*64.
		l1.Issue(loadReq(set0Line+mem.Addr(i*16*64), 1, uint64(100+i)))
	}
	for cy := uint64(100); cy < 400; cy++ {
		l1.Tick(cy)
		l2.Tick(cy)
		d.tick(cy)
	}
	*got = (*got)[:0]
	l1.Issue(loadReq(0x6000, 1, 400))
	for cy := uint64(400); cy < 500; cy++ {
		l1.Tick(cy)
		l2.Tick(cy)
		d.tick(cy)
	}
	if len(*got) != 1 {
		t.Fatalf("no response after eviction, got %d", len(*got))
	}
	if (*got)[0].ServedBy != mem.LevelL2 {
		t.Fatalf("served by %v, want L2", (*got)[0].ServedBy)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	d := &fakeDRAM{latency: 5}
	cfg := smallConfig("l1", mem.LevelL1)
	cfg.Sets, cfg.Ways = 1, 2 // tiny: force evictions
	c := MustNew(cfg, d)
	d.sink = c
	// Store misses allocate and dirty the line.
	c.Issue(&mem.Request{Addr: 0x100, Type: mem.Store})
	run(c, d, 30)
	// Fill two more lines in the same (only) set: dirty line must write back.
	c.Issue(loadReq(0x1100, 1, 30))
	c.Issue(loadReq(0x2100, 1, 31))
	runRange(c, d, 30, 200)
	if c.Stats().Writebacks == 0 {
		t.Fatal("dirty eviction produced no writeback")
	}
}

func TestBackpressureWhenInQFull(t *testing.T) {
	d := &fakeDRAM{latency: 5}
	cfg := smallConfig("l1", mem.LevelL1)
	cfg.InQ = 2
	c := MustNew(cfg, d)
	d.sink = c
	ok1 := c.Issue(loadReq(0x100, 1, 0))
	ok2 := c.Issue(loadReq(0x200, 1, 0))
	ok3 := c.Issue(loadReq(0x300, 1, 0))
	if !ok1 || !ok2 {
		t.Fatal("queue rejected before full")
	}
	if ok3 {
		t.Fatal("demand accepted with full input queue")
	}
	// Prefetches are dropped (accepted but discarded) instead.
	if !c.Issue(&mem.Request{Addr: 0x400, Type: mem.Prefetch}) {
		t.Fatal("prefetch should be dropped, not refused")
	}
	if c.Stats().PFDropped != 1 {
		t.Fatalf("PFDropped = %d, want 1", c.Stats().PFDropped)
	}
}

func TestMSHRFullBlocksDemandsDropsPrefetches(t *testing.T) {
	cfg := smallConfig("l1", mem.LevelL1)
	cfg.MSHRs = 2
	cfg.InQ = 16
	d := &fakeDRAM{latency: 1000} // never fills within test
	c := MustNew(cfg, d)
	d.sink = c
	c.Issue(loadReq(0x1000, 1, 0))
	c.Issue(loadReq(0x2000, 1, 0))
	c.Issue(&mem.Request{Addr: 0x9000, Type: mem.Prefetch})
	c.Issue(loadReq(0x3000, 1, 0))
	c.Issue(loadReq(0x4000, 1, 0))
	run(c, d, 50)
	if c.Stats().MSHRFullEvents == 0 {
		t.Fatal("expected MSHR-full events")
	}
	if d.issued != 2 {
		t.Fatalf("lower saw %d, want 2 (MSHR limit)", d.issued)
	}
	if c.Stats().PFDropped == 0 {
		t.Fatal("prefetch should be dropped when MSHRs are full")
	}
}

func TestPollutionCounting(t *testing.T) {
	cfg := smallConfig("l1", mem.LevelL1)
	cfg.Sets, cfg.Ways = 1, 2
	d := &fakeDRAM{latency: 2}
	c := MustNew(cfg, d)
	d.sink = c
	c.Issue(&mem.Request{Addr: 0x100, Type: mem.Prefetch, FillLevel: mem.LevelL1})
	run(c, d, 20)
	// Evict it untouched.
	c.Issue(loadReq(0x1100, 1, 20))
	c.Issue(loadReq(0x2100, 1, 21))
	runRange(c, d, 20, 100)
	if c.Stats().PFPolluting == 0 {
		t.Fatal("untouched prefetched line eviction not counted as pollution")
	}
}

func TestAccessEventFires(t *testing.T) {
	d := &fakeDRAM{latency: 5}
	c := MustNew(smallConfig("l1", mem.LevelL1), d)
	d.sink = c
	var events []AccessEvent
	c.OnAccess(func(_ int, e *AccessEvent) { events = append(events, *e) })
	c.Issue(loadReq(0x700, 0xAB, 0))
	run(c, d, 20)
	c.Issue(loadReq(0x700, 0xAB, 20))
	runRange(c, d, 20, 40)
	if len(events) != 2 {
		t.Fatalf("want 2 access events, got %d", len(events))
	}
	if events[0].Hit || !events[1].Hit {
		t.Fatalf("hit flags wrong: %+v", events)
	}
}

func TestStatsDerived(t *testing.T) {
	var s Stats
	s.DemandAccesses, s.DemandHits, s.DemandMisses = 10, 9, 1
	s.PFFills, s.PFUseful = 4, 3
	if s.HitRate() != 0.9 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
	if s.Coverage() != 0.75 {
		t.Fatalf("coverage %v", s.Coverage())
	}
	if s.Accuracy() != 0.75 {
		t.Fatalf("accuracy %v", s.Accuracy())
	}
}
