package sim

import (
	"fmt"

	"clip/internal/cache"
	"clip/internal/core"
	"clip/internal/cpu"
	"clip/internal/criticality"
	"clip/internal/dspatch"
	"clip/internal/hermes"
	"clip/internal/mem"
	"clip/internal/prefetch"
	"clip/internal/throttle"
)

// coreMechs is one core's mechanisms. A nil field is a mechanism the
// configuration does not attach. What a mechanism can do is resolved into the
// record once, by attachMechanisms: nothing later asks a mechanism's type.
type coreMechs struct {
	// pf is the prefetcher the core trains: the DSPatch wrapper when one is
	// configured (dspatch is then the same object), otherwise the engine.
	pf      prefetch.Prefetcher
	dspatch *dspatch.DSPatch
	// feedback and berti are the engine under any wrapper, when it learns
	// from prefetch usefulness and when it observes miss latency.
	feedback prefetch.FeedbackSink
	berti    *prefetch.Berti

	clip      *core.CLIP
	crit      criticality.Predictor // filter predictor (Fig 5)
	scored    []scoredPredictor     // observation predictors (Fig 4)
	throttler throttle.Throttler
	hermes    *hermes.Predictor
}

type scoredPredictor struct {
	pred  criticality.Predictor
	score criticality.Score
}

// attachMechanisms builds each core's record — prefetcher, CLIP, criticality
// predictors, throttler and Hermes — and wires it onto the assembled
// hierarchy. Each mechanism is built as one array for every core (its
// package's NewArray), and each event reaches it through one handler that
// is told the core.
func (s *System) attachMechanisms() error {
	n := s.cfg.Cores()
	cfg, a := &s.cfg, s.arena

	s.mech = mem.Make[coreMechs](a, n)
	counts := mem.Make[uint64](a, 2*n)
	s.pfGenerated, s.pfIssued = counts[:n:n], counts[n:]

	engines, err := prefetch.NewArray(a, cfg.Prefetcher, n)
	if err != nil {
		return err
	}
	for i, engine := range engines {
		m := &s.mech[i]
		m.pf = engine
		m.feedback, _ = engine.(prefetch.FeedbackSink)
		m.berti, _ = engine.(*prefetch.Berti)
	}
	if cfg.DSPatch {
		// DSPatch samples ONE controller's utilization — deliberately
		// myopic, as the paper stresses.
		ds := dspatch.NewArray(a, engines, func() float64 { return s.dram.ChannelUtilization(0) })
		for i := range ds {
			s.mech[i].dspatch = &ds[i]
			s.mech[i].pf = &ds[i]
		}
	}
	if cfg.CLIP != nil {
		ccfg := cfg.clipConfig()
		ccfg.CriticalityLevel = effLevel(s.attachL2)
		clips, err := core.NewArray(a, ccfg, n)
		if err != nil {
			return err
		}
		for i := range clips {
			s.mech[i].clip = &clips[i]
		}
	}
	if cfg.CritPredictor != "" {
		ps, err := criticality.NewArray(a, cfg.CritPredictor, cfg.CPU.ROBSize, n)
		if err != nil {
			return err
		}
		for i, p := range ps {
			s.mech[i].crit = p
		}
	}
	if cfg.ScorePredictors {
		names := criticality.Names()
		k := len(names)
		scored := mem.Make[scoredPredictor](a, n*k)
		for j, name := range names {
			ps, err := criticality.NewArray(a, name, cfg.CPU.ROBSize, n)
			if err != nil {
				return err
			}
			for i, p := range ps {
				scored[i*k+j].pred = p
			}
		}
		for i := range s.mech {
			s.mech[i].scored = scored[i*k : (i+1)*k : (i+1)*k]
		}
	}
	if cfg.Throttler != "" {
		targets := mem.Make[prefetch.Throttleable](a, n)
		for i := range targets {
			targets[i], _ = s.mech[i].pf.(prefetch.Throttleable)
		}
		ts, err := throttle.NewArray(a, cfg.Throttler, targets) // an unknown name errs first
		if err != nil {
			return err
		}
		if targets[0] == nil { // every core has the same kind of prefetcher
			return fmt.Errorf("sim: prefetcher %q (DSPatch %t) cannot take throttler %q", cfg.Prefetcher, cfg.DSPatch, cfg.Throttler)
		}
		for i, t := range ts {
			s.mech[i].throttler = t
		}
	}
	if cfg.Hermes {
		hs := hermes.NewArray(a, n)
		for i := range hs {
			s.mech[i].hermes = &hs[i]
		}
	}

	onAccess, onPFEvict := s.onAccess, s.onPFEvict
	onLoad, onRetire := s.onLoadComplete, s.onRetire
	for i := range s.mech {
		m := &s.mech[i]
		attach := s.l1d[i]
		if s.attachL2 {
			attach = s.l2[i]
		}
		attach.OnAccess(onAccess)
		if m.feedback != nil {
			attach.OnPFEvict(onPFEvict)
		}

		// Register the event listeners only when a mechanism consumes them:
		// the core skips building events with no listeners, which keeps the
		// plain-prefetcher hot path free of per-load/per-retire event work.
		if m.clip != nil || m.crit != nil || m.scored != nil || m.hermes != nil || m.berti != nil {
			s.cores[i].OnLoadComplete(onLoad)
		}
		if m.crit != nil || m.scored != nil {
			s.cores[i].OnRetire(onRetire)
		}
	}
	return nil
}

// onPFEvict feeds core i's prefetcher an untouched prefetched line's
// eviction (negative usefulness feedback).
func (s *System) onPFEvict(i int, trigger uint64, addr mem.Addr) {
	s.mech[i].feedback.Feedback(prefetch.Candidate{Addr: addr, TriggerIP: trigger}, false)
}

// onLoadComplete trains the completing load's core's mechanisms.
func (s *System) onLoadComplete(ev *cpu.LoadEvent) { s.mech[ev.Core].onLoadComplete(ev) }

// onRetire feeds the retiring instruction's core's retire-stream predictors.
func (s *System) onRetire(ev *cpu.RetireEvent) { s.mech[ev.Core].onRetire(ev) }

// onAccess handles a demand access at the prefetcher attach level: CLIP
// observation, PPF feedback, prefetcher training and candidate filtering.
func (s *System) onAccess(i int, ev *cache.AccessEvent) {
	m := &s.mech[i]
	if m.clip != nil {
		m.clip.OnAccess(ev.Req.Addr, ev.Hit, ev.Cycle)
	}
	if ev.Hit && ev.HitPrefetchedLine && m.feedback != nil {
		m.feedback.Feedback(prefetch.Candidate{Addr: ev.Req.Addr,
			TriggerIP: ev.TriggerIP}, true)
	}
	if ev.Req.Type != mem.Load {
		return // prefetchers train on the load stream
	}
	cands := m.pf.Train(prefetch.Access{
		IP: ev.Req.IP, Addr: ev.Req.Addr, Hit: ev.Hit, Cycle: ev.Cycle,
	})
	if len(cands) == 0 {
		return
	}
	s.pfGenerated[i] += uint64(len(cands))

	if m.clip != nil {
		m.clip.SetHistories(s.cores[i].BranchHist, s.cores[i].CritHist)
	}
	// Dynamic CLIP (§5.3): with ample bandwidth the filter stands down and
	// the prefetcher runs free; training continues via OnLoadComplete.
	clipEngaged := m.clip != nil
	if clipEngaged && s.dynClip != nil && !s.dynClip.active {
		clipEngaged = false
	}
	for _, c := range cands {
		critFlag := false
		// Figure 5 mode: a prior predictor gates prefetches by trigger IP
		// (its only vocabulary).
		if m.crit != nil && !m.crit.Critical(c.TriggerIP, c.Addr) {
			continue
		}
		if clipEngaged {
			ok, crit := m.clip.Allow(c)
			if !ok {
				continue
			}
			critFlag = crit
			// CLIP fills every surviving prefetch to the attach level's
			// innermost cache (§4.2: "we prefetch all the requests to L1").
			if s.attachL2 {
				c.FillLevel = mem.LevelL2
			} else {
				c.FillLevel = mem.LevelL1
			}
		}
		// Route the prefetch by fill level: a request entering a cache
		// allocates an MSHR there, and its response terminates at the fill
		// level — injecting an L2-fill prefetch at L1 would strand the L1
		// MSHR (ChampSim's fill_this_level/lower split). Surviving
		// candidates wait in the per-core prefetch queue for cache space.
		fill := c.FillLevel
		if s.attachL2 && fill < mem.LevelL2 {
			fill = mem.LevelL2 // an L2 prefetcher cannot fill L1
		}
		if s.pfQ[i].Len() >= pfQueueDepth {
			continue // PQ full: candidate dropped
		}
		s.pfQ[i].Push(pfEntry{
			req: mem.Request{
				Addr: c.Addr.Line(), IP: c.TriggerIP,
				Core: int16(i), Type: mem.Prefetch, FillLevel: fill,
				Critical: critFlag, IssueCycle: ev.Cycle, ROBIndex: -1,
			},
			toL2: fill >= mem.LevelL2,
		})
	}
}

// onLoadComplete trains every attached mechanism with a finished load, in a
// fixed order: CLIP, the filter predictor, the scored predictors, Hermes,
// then Berti's miss-latency observation.
func (m *coreMechs) onLoadComplete(ev *cpu.LoadEvent) {
	if m.clip != nil {
		m.clip.OnLoadComplete(ev)
	}
	if m.crit != nil {
		m.crit.OnLoadComplete(ev)
	}
	if m.scored != nil {
		actual := criticality.IsCriticalEvent(ev)
		for j := range m.scored {
			sp := &m.scored[j]
			sp.score.Update(sp.pred.Critical(ev.IP, ev.Addr), actual)
			sp.pred.OnLoadComplete(ev)
		}
	}
	if m.hermes != nil && ev.ServedBy >= mem.LevelL2 {
		m.hermes.Train(ev.IP, ev.Addr, ev.ServedBy, m.hermes.OffChip(ev.IP, ev.Addr))
	}
	if m.berti != nil && ev.ServedBy >= mem.LevelL2 {
		m.berti.ObserveMissLatency(ev.Latency)
	}
}

// onRetire feeds retire-stream predictors.
func (m *coreMechs) onRetire(ev *cpu.RetireEvent) {
	if m.crit != nil {
		m.crit.OnRetire(ev)
	}
	for j := range m.scored {
		m.scored[j].pred.OnRetire(ev)
	}
}
