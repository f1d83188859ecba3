package noc

import "testing"

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
	var deliveredAt uint64
	m.Send(0, 15, FlitsPerAddr, true, func(cy uint64) { deliveredAt = cy })
	for cy := uint64(0); cy < 200; cy++ {
		m.Tick(cy)
	}
	if deliveredAt == 0 {
		t.Fatal("packet never delivered")
	}
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
	done := false
	m.Send(2, 2, FlitsPerData, true, func(uint64) { done = true })
	for cy := uint64(0); cy < 10; cy++ {
		m.Tick(cy)
	}
	if !done {
		t.Fatal("zero-hop packet not delivered")
	}
}

func TestDataPacketsSlowerThanAddr(t *testing.T) {
	run := func(flits int) uint64 {
		m := MustNew(DefaultConfig(16))
		var at uint64
		m.Send(0, 3, flits, true, func(cy uint64) { at = cy })
		for cy := uint64(0); cy < 500 && at == 0; cy++ {
			m.Tick(cy)
		}
		return at
	}
	if a, d := run(FlitsPerAddr), run(FlitsPerData); d <= a {
		t.Fatalf("data packet (%d) not slower than addr packet (%d)", d, a)
	}
}

func TestContentionDelays(t *testing.T) {
	// Many packets over the same link: later ones wait.
	m := MustNew(DefaultConfig(16))
	var last uint64
	for i := 0; i < 20; i++ {
		m.Send(0, 1, FlitsPerData, true, func(cy uint64) {
			if cy > last {
				last = cy
			}
		})
	}
	for cy := uint64(0); cy < 1000; cy++ {
		m.Tick(cy)
	}
	// 20 packets * 8 flits on one link: at least 160 cycles of serialization.
	if last < 160 {
		t.Fatalf("no serialization: last delivery at %d", last)
	}
}

func TestPriorityClasses(t *testing.T) {
	m := MustNew(DefaultConfig(16))
	var hiAt, loAt uint64
	// Fill the link with low-class packets, then send one high-class.
	for i := 0; i < 10; i++ {
		m.Send(0, 1, FlitsPerData, false, func(cy uint64) {
			if cy > loAt {
				loAt = cy
			}
		})
	}
	m.Send(0, 1, FlitsPerData, true, func(cy uint64) { hiAt = cy })
	for cy := uint64(0); cy < 1000; cy++ {
		m.Tick(cy)
	}
	if hiAt == 0 || loAt == 0 {
		t.Fatal("packets not delivered")
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
	var order []bool
	for i := 0; i < 5; i++ {
		m.Send(0, 1, FlitsPerData, false, func(cy uint64) { order = append(order, false) })
	}
	m.Send(0, 1, FlitsPerData, true, func(cy uint64) { order = append(order, true) })
	for cy := uint64(0); cy < 1000; cy++ {
		m.Tick(cy)
	}
	if len(order) != 6 {
		t.Fatalf("delivered %d/6", len(order))
	}
	if order[len(order)-1] != true {
		t.Fatal("without priority, FIFO order should hold (high last)")
	}
}

func TestManyToOneHotspot(t *testing.T) {
	m := MustNew(DefaultConfig(16))
	delivered := 0
	for src := 0; src < 16; src++ {
		if src == 5 {
			continue
		}
		m.Send(src, 5, FlitsPerData, true, func(uint64) { delivered++ })
	}
	for cy := uint64(0); cy < 2000; cy++ {
		m.Tick(cy)
	}
	if delivered != 15 {
		t.Fatalf("hotspot delivered %d/15", delivered)
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
	var order []int
	for i := 0; i < 6; i++ {
		m.Send(0, 1, FlitsPerData, true, func(uint64) { order = append(order, 1) }) // 1 hop
		m.Send(0, 2, FlitsPerData, true, func(uint64) { order = append(order, 2) }) // 2 hops
	}
	for cy := uint64(0); cy < 2000; cy++ {
		m.Tick(cy)
	}
	if len(order) != 12 {
		t.Fatalf("delivered %d/12", len(order))
	}
	// The first four deliveries must include both flows (interleaving).
	seen := map[int]bool{}
	for _, f := range order[:4] {
		seen[f] = true
	}
	if len(seen) != 2 {
		t.Fatalf("flows not interleaved: first deliveries %v", order[:4])
	}
}
