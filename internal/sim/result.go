package sim

import (
	"clip/internal/cache"
	"clip/internal/core"
	"clip/internal/cpu"
	"clip/internal/criticality"
	"clip/internal/dram"
	"clip/internal/energy"
	"clip/internal/hermes"
	"clip/internal/noc"
	"clip/internal/stats"
)

// Result is the harvest of one simulation run.
type Result struct {
	Cycles   uint64 // measured cycles (post warmup)
	Finished bool   // every core retired its budget

	IPC       []float64
	CoreStats []cpu.Stats

	// Aggregated cache stats by level (summed over cores/slices).
	L1, L2, LLC cache.Stats
	// L1PerCore keeps per-core L1 stats (Figure 11's per-mix miss latency).
	L1PerCore []cache.Stats

	DRAM dram.Stats
	NoC  noc.Stats

	// Clip aggregates CLIP counters over cores (nil when CLIP is off).
	Clip *core.Stats
	// ClipStaticIPs / ClipDynamicIPs are mean per-core critical IP counts
	// (Figure 15).
	ClipStaticIPs, ClipDynamicIPs float64

	// PredScores holds observation-mode predictor confusion matrices,
	// aggregated over cores (Figure 4).
	PredScores map[string]criticality.Score

	// Hermes aggregates the off-chip predictor stats when enabled.
	Hermes *hermes.Stats

	// PFGenerated / PFIssued: candidates produced vs. survived filtering
	// (Figure 16).
	PFGenerated, PFIssued uint64

	// TLB aggregates translation statistics.
	TLB tlbStats
	// ICache aggregates instruction-fetch statistics.
	ICache ICacheStats
	// ClipActiveFraction is Dynamic CLIP's engaged-time share (1.0 when the
	// extension is off but CLIP is on).
	ClipActiveFraction float64

	// Energy is the dynamic memory-hierarchy energy model output.
	EnergyCounts energy.Counts
	Energy       energy.Breakdown

	// Stall is the diagnosis of a run that stopped short because nothing in
	// the system could ever act again (empty when Finished, or when the run
	// merely hit its cycle bound). Not part of the report.
	Stall string `json:"-"`
}

// MeanIPC averages per-core IPC.
func (r *Result) MeanIPC() float64 { return stats.Mean(r.IPC) }

// SumIPC is the homogeneous-mix throughput proxy.
func (r *Result) SumIPC() float64 {
	var t float64
	for _, v := range r.IPC {
		t += v
	}
	return t
}

// AvgL1MissLatency returns the mean demand miss latency at L1 (cycles).
func (r *Result) AvgL1MissLatency() float64 { return r.L1.DemandMissLatency.Mean() }

// PrefetchAccuracy returns overall prefetch accuracy at the attach level
// (L1 aggregate covers Berti/IPCP configs; falls back to L2 for L2
// prefetchers).
func (r *Result) PrefetchAccuracy() float64 {
	if r.L1.PFFills+r.L1.PFLate > 0 {
		return r.L1.Accuracy()
	}
	return r.L2.Accuracy()
}

// Lateness returns the late fraction of useful prefetches.
func (r *Result) Lateness() float64 {
	late := r.L1.PFLate + r.L2.PFLate
	useful := r.L1.PFUseful + r.L2.PFUseful
	return stats.Ratio(late, late+useful)
}

func addCache(dst *cache.Stats, src *cache.Stats) {
	dst.DemandAccesses += src.DemandAccesses
	dst.DemandHits += src.DemandHits
	dst.DemandMisses += src.DemandMisses
	dst.StoreAccesses += src.StoreAccesses
	dst.PFIssued += src.PFIssued
	dst.PFDropped += src.PFDropped
	dst.PFFills += src.PFFills
	dst.PFUseful += src.PFUseful
	dst.PFLate += src.PFLate
	dst.PFPolluting += src.PFPolluting
	dst.Writebacks += src.Writebacks
	dst.Evictions += src.Evictions
	dst.MSHRFullEvents += src.MSHRFullEvents
	dst.OrphanFills += src.OrphanFills
	dst.DemandMissLatency.Merge(src.DemandMissLatency)
}

func addClip(dst, src *core.Stats) {
	dst.Allowed += src.Allowed
	dst.Explored += src.Explored
	for i := range dst.Dropped {
		dst.Dropped[i] += src.Dropped[i]
	}
	dst.PhaseResets += src.PhaseResets
	dst.Windows += src.Windows
	dst.CritInserts += src.CritInserts
	dst.UtilityHits += src.UtilityHits
	dst.PredTrainInc += src.PredTrainInc
	dst.PredTrainDec += src.PredTrainDec
	dst.PredScore.TruePos += src.PredScore.TruePos
	dst.PredScore.FalsePos += src.PredScore.FalsePos
	dst.PredScore.FalseNeg += src.PredScore.FalseNeg
	dst.PredScore.TrueNeg += src.PredScore.TrueNeg
}

// tlbStats mirrors tlb.Stats for aggregation without exposing the package.
type tlbStats struct {
	Accesses uint64
	DTLBHits uint64
	STLBHits uint64
	Walks    uint64
}

// DTLBHitRate returns the first-level translation hit rate.
func (t *tlbStats) DTLBHitRate() float64 {
	return stats.Ratio(t.DTLBHits, t.Accesses)
}

// collect harvests the run into a Result.
func (s *System) collect() *Result {
	s.settleAll()
	r := &Result{
		Stall:      s.stall,
		Cycles:     s.cycle - s.measureStart,
		Finished:   s.Finished(),
		PredScores: map[string]criticality.Score{},
	}
	if s.cfg.CLIP != nil {
		r.ClipActiveFraction = 1
		if s.dynClip != nil {
			r.ClipActiveFraction = s.dynClip.ActiveFraction()
		}
	}
	for i := range s.cores {
		p := s.ports[i]
		ts := p.tlb.Stats()
		r.TLB.Accesses += ts.Accesses
		r.TLB.DTLBHits += ts.DTLBHits
		r.TLB.STLBHits += ts.STLBHits
		r.TLB.Walks += ts.Walks
		r.ICache.Fetches += p.l1i.stats.Fetches
		r.ICache.Misses += p.l1i.stats.Misses
	}
	measured := s.cycle - s.measureStart
	for i, c := range s.cores {
		st := *c.Stats()
		r.CoreStats = append(r.CoreStats, st)
		var ipc float64
		if fc := c.FinishCycle(); fc > s.measureStart && s.cfg.InstrPerCore > 0 {
			ipc = float64(s.cfg.InstrPerCore) / float64(fc-s.measureStart)
		} else if measured > 0 {
			ipc = float64(st.Retired) / float64(measured)
		}
		r.IPC = append(r.IPC, ipc)

		addCache(&r.L1, s.l1d[i].Stats())
		r.L1PerCore = append(r.L1PerCore, *s.l1d[i].Stats())
		addCache(&r.L2, s.l2[i].Stats())
		addCache(&r.LLC, s.llc[i].Stats())
		r.PFGenerated += s.pfGenerated[i]
		r.PFIssued += s.pfIssued[i]

		m := &s.mech[i]
		if m.clip != nil {
			if r.Clip == nil {
				r.Clip = &core.Stats{}
			}
			addClip(r.Clip, m.clip.Stats())
			st, dy := m.clip.CriticalIPCounts()
			r.ClipStaticIPs += float64(st)
			r.ClipDynamicIPs += float64(dy)
		}
		for _, sp := range m.scored {
			sc := r.PredScores[sp.pred.Name()]
			sc.TruePos += sp.score.TruePos
			sc.FalsePos += sp.score.FalsePos
			sc.FalseNeg += sp.score.FalseNeg
			sc.TrueNeg += sp.score.TrueNeg
			r.PredScores[sp.pred.Name()] = sc
		}
		if m.hermes != nil {
			if r.Hermes == nil {
				r.Hermes = &hermes.Stats{}
			}
			h := m.hermes.Stats()
			r.Hermes.Predictions += h.Predictions
			r.Hermes.PredOffChip += h.PredOffChip
			r.Hermes.TruePos += h.TruePos
			r.Hermes.FalsePos += h.FalsePos
			r.Hermes.FalseNeg += h.FalseNeg
		}
	}
	if n := float64(len(s.cores)); n > 0 {
		r.ClipStaticIPs /= n
		r.ClipDynamicIPs /= n
	}
	r.DRAM = *s.dram.Stats()
	r.NoC = *s.mesh.Stats()

	r.EnergyCounts = energy.Counts{
		L1Accesses:  r.L1.DemandAccesses + r.L1.StoreAccesses + r.L1.PFFills + r.L1.Writebacks,
		L2Accesses:  r.L2.DemandAccesses + r.L2.StoreAccesses + r.L2.PFFills + r.L2.Writebacks,
		LLCAccesses: r.LLC.DemandAccesses + r.LLC.StoreAccesses + r.LLC.PFFills + r.LLC.Writebacks,
		DRAMReads:   r.DRAM.Reads,
		DRAMWrites:  r.DRAM.Writes,
		NoCFlits:    r.NoC.Flits,
	}
	if r.Clip != nil {
		r.EnergyCounts.ClipProbes = r.Clip.Allowed + r.Clip.TotalDropped() + r.Clip.CritInserts
	}
	r.Energy = energy.Compute(r.EnergyCounts, energy.Default7nm)
	return r
}
