package sim

// tightArms are the stall-heavy oracle arms the stall arms of skipMatrix
// cannot reach: a full controller *write* queue, and read/write queues that
// fill within a few thousand instructions on four cores. No Config field
// sizes the controller queues, so these arms carry their own.
func tightArms() []oracleArm {
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
	// Every stall site fires constantly, the write queue's included.
	heavy := func(sc stallCounters) bool {
		return sc.L1MSHRFull > 0 && sc.RQFull > 0 && sc.WQFull > 0 && sc.TLBAccesses > 0
	}
	arms := []oracleArm{
		{name: "tight-clip", cfg: clip, rq: 8, wq: 1},
		{name: "tight-hermes", cfg: hermes, rq: 6, wq: 1},
	}
	for i := range arms {
		arms[i].seeds, arms[i].fracs, arms[i].heavy = []uint64{1, 2}, []float64{0.2, 0.3, 0.5, 0.7}, heavy
	}
	return arms
}

// hermesIrrArm is Hermes on an irregular mix — four integer codes, two of
// them pointer chasers — behind one channel whose read queue holds eight
// entries, so the direct-DRAM queues fill and the L1 misses routed into them
// are refused. Its skipping run saves only while some tile's refused miss
// holds the bypass route and that tile's direct-DRAM head is parked on the
// controller, so the restores start from both. Every (workload, core) of the
// mix is one another arm already runs: the arm adds no trace program to the
// process-wide cache, whose room TestNewSystemFootprint relies on.
func hermesIrrArm() oracleArm {
	cfg := stallBase([]string{"620.omnetpp_s-874B", "605.mcf_s-665B", "620.omnetpp_s-874B", "602.gcc_s-734B"})
	cfg.Hermes = true
	return oracleArm{name: "hermes-irr", cfg: cfg, rq: 8, seeds: []uint64{1, 2}, fracs: []float64{0.2, 0.5}, saveWhen: routeParked}
}

// routeParked holds while some tile's refused L1 miss holds the bypass route
// and its direct-DRAM head is parked on a controller queue.
func routeParked(s *System) bool {
	for i := range s.stage {
		if r := &s.stage[i].route; r.live && r.bypass && s.headIsParked(i) {
			return true
		}
	}
	return false
}
