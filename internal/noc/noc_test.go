package noc

import (
	"testing"

	"clip/internal/mem"
)

// delivery is one payload packet's arrival.
type delivery struct {
	tag   uint64 // the Req.IP the packet was sent with
	cycle uint64
}

// recorder registers an OnDeliver sink on m that appends every arrival, in
// delivery order, to the returned list.
func recorder(m *Mesh) *[]delivery {
	var got []delivery
	m.OnDeliver(func(_ uint8, _ int, r *mem.Response, cycle uint64) {
		got = append(got, delivery{r.Req.IP, cycle})
	})
	return &got
}

// send injects a payload packet tagged tag.
func send(m *Mesh, src, dst, flits int, high bool, tag uint64) {
	m.SendPayload(src, dst, flits, high, 0, &mem.Response{Req: mem.Request{IP: tag}})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 2}); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestDefaultConfigCoversNodes(t *testing.T) {
	for _, n := range []int{1, 4, 8, 16, 64, 100} {
		cfg := DefaultConfig(n)
		if cfg.Width*cfg.Height < n {
			t.Fatalf("DefaultConfig(%d) = %dx%d too small", n, cfg.Width, cfg.Height)
		}
	}
	cfg := DefaultConfig(64)
	if cfg.Width != 8 || cfg.Height != 8 {
		t.Fatalf("64 nodes should be 8x8, got %dx%d", cfg.Width, cfg.Height)
	}
}

func TestXYRouteLength(t *testing.T) {
	m := MustNew(DefaultConfig(64))
	// Node 0 = (0,0), node 63 = (7,7): 14 hops.
	if h := m.hops(0, 63); h != 14 {
		t.Fatalf("hop count 0->63 = %d, want 14", h)
	}
	if h := m.hops(5, 5); h != 0 {
		t.Fatalf("self hop count = %d, want 0", h)
	}
	if h := m.hops(0, 1); h != 1 {
		t.Fatalf("adjacent hop count = %d, want 1", h)
	}
}

func TestDelivery(t *testing.T) {
	m := MustNew(DefaultConfig(16))
	got := recorder(m)
	send(m, 0, 15, FlitsPerAddr, true, 0)
	for cy := uint64(0); cy < 200; cy++ {
		m.Tick(cy)
	}
	if len(*got) != 1 {
		t.Fatalf("%d deliveries of one packet", len(*got))
	}
	deliveredAt := (*got)[0].cycle
	// 6 hops * (1 flit + 2 router stages) => at least 18 cycles.
	if deliveredAt < 12 {
		t.Fatalf("delivery too fast: %d", deliveredAt)
	}
	if m.Stats().Packets != 1 {
		t.Fatalf("packets = %d", m.Stats().Packets)
	}
}

func TestZeroHopDelivery(t *testing.T) {
	m := MustNew(DefaultConfig(4))
	got := recorder(m)
	send(m, 2, 2, FlitsPerData, true, 0)
	for cy := uint64(0); cy < 10; cy++ {
		m.Tick(cy)
	}
	if len(*got) != 1 {
		t.Fatal("zero-hop packet not delivered")
	}
}

func TestDataPacketsSlowerThanAddr(t *testing.T) {
	run := func(flits int) uint64 {
		m := MustNew(DefaultConfig(16))
		got := recorder(m)
		send(m, 0, 3, flits, true, 0)
		for cy := uint64(0); cy < 500 && len(*got) == 0; cy++ {
			m.Tick(cy)
		}
		if len(*got) == 0 {
			t.Fatalf("a %d-flit packet never delivered", flits)
		}
		return (*got)[0].cycle
	}
	if a, d := run(FlitsPerAddr), run(FlitsPerData); d <= a {
		t.Fatalf("data packet (%d) not slower than addr packet (%d)", d, a)
	}
}

func TestContentionDelays(t *testing.T) {
	// Many packets over the same link: later ones wait.
	m := MustNew(DefaultConfig(16))
	got := recorder(m)
	for i := 0; i < 20; i++ {
		send(m, 0, 1, FlitsPerData, true, 0)
	}
	for cy := uint64(0); cy < 1000; cy++ {
		m.Tick(cy)
	}
	if len(*got) != 20 {
		t.Fatalf("delivered %d/20", len(*got))
	}
	last := (*got)[19].cycle
	// 20 packets * 8 flits on one link: at least 160 cycles of serialization.
	if last < 160 {
		t.Fatalf("no serialization: last delivery at %d", last)
	}
}

func TestPriorityClasses(t *testing.T) {
	m := MustNew(DefaultConfig(16))
	got := recorder(m)
	// Fill the link with low-class packets (tag 0), then send one
	// high-class (tag 1).
	for i := 0; i < 10; i++ {
		send(m, 0, 1, FlitsPerData, false, 0)
	}
	send(m, 0, 1, FlitsPerData, true, 1)
	for cy := uint64(0); cy < 1000; cy++ {
		m.Tick(cy)
	}
	if len(*got) != 11 {
		t.Fatalf("delivered %d/11", len(*got))
	}
	var hiAt, loAt uint64
	for _, d := range *got {
		if d.tag == 1 {
			hiAt = d.cycle
		} else {
			loAt = max(loAt, d.cycle)
		}
	}
	if hiAt >= loAt {
		t.Fatalf("high-class packet (%d) should overtake low-class tail (%d)", hiAt, loAt)
	}
	if m.Stats().HighLatency.Mean() >= m.Stats().LowLatency.Mean() {
		t.Fatalf("high latency %v !< low latency %v",
			m.Stats().HighLatency.Mean(), m.Stats().LowLatency.Mean())
	}
}

func TestNoPriorityWhenDisabled(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.CriticalPriority = false
	m := MustNew(cfg)
	got := recorder(m)
	for i := 0; i < 5; i++ {
		send(m, 0, 1, FlitsPerData, false, 0)
	}
	send(m, 0, 1, FlitsPerData, true, 1)
	for cy := uint64(0); cy < 1000; cy++ {
		m.Tick(cy)
	}
	if len(*got) != 6 {
		t.Fatalf("delivered %d/6", len(*got))
	}
	if (*got)[5].tag != 1 {
		t.Fatal("without priority, FIFO order should hold (high last)")
	}
}

func TestManyToOneHotspot(t *testing.T) {
	m := MustNew(DefaultConfig(16))
	got := recorder(m)
	for src := 0; src < 16; src++ {
		if src == 5 {
			continue
		}
		send(m, src, 5, FlitsPerData, true, 0)
	}
	for cy := uint64(0); cy < 2000; cy++ {
		m.Tick(cy)
	}
	if len(*got) != 15 {
		t.Fatalf("hotspot delivered %d/15", len(*got))
	}
}

func TestVirtualChannelConfig(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.VCs != 6 {
		t.Fatalf("default VCs = %d, want 6 (Table 3)", cfg.VCs)
	}
	cfg.VCs = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative VCs accepted")
	}
}

func TestVCFairnessAcrossFlows(t *testing.T) {
	// Two high-class flows with different path lengths use different VCs on
	// the shared first link; round-robin must interleave them rather than
	// letting one flow monopolise.
	m := MustNew(DefaultConfig(16))
	got := recorder(m)
	for i := 0; i < 6; i++ {
		send(m, 0, 1, FlitsPerData, true, 1) // 1 hop
		send(m, 0, 2, FlitsPerData, true, 2) // 2 hops
	}
	for cy := uint64(0); cy < 2000; cy++ {
		m.Tick(cy)
	}
	if len(*got) != 12 {
		t.Fatalf("delivered %d/12", len(*got))
	}
	// The first four deliveries must include both flows (interleaving).
	seen := map[uint64]bool{}
	for _, d := range (*got)[:4] {
		seen[d.tag] = true
	}
	if len(seen) != 2 {
		t.Fatalf("flows not interleaved: first deliveries %v", (*got)[:4])
	}
}
