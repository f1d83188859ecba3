package sim

import (
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

// attachMechanisms wires prefetchers, CLIP, criticality predictors,
// throttlers and Hermes onto the assembled hierarchy.
func (s *System) attachMechanisms() error {
	n := s.cfg.Cores()
	cfg := &s.cfg

	s.pf = make([]prefetch.Prefetcher, n)
	s.pfGenerated = make([]uint64, n)
	s.pfIssued = make([]uint64, n)

	if cfg.CLIP != nil {
		s.clip = make([]*core.CLIP, n)
	}
	if cfg.CritPredictor != "" {
		s.critPred = make([]criticality.Predictor, n)
	}
	if cfg.ScorePredictors {
		s.scored = make([][]scoredPredictor, n)
	}
	if cfg.Throttler != "" {
		s.throttler = make([]throttle.Throttler, n)
	}
	if cfg.Hermes {
		s.hermes = make([]*hermes.Predictor, n)
	}

	for i := 0; i < n; i++ {
		i := i
		pf, err := prefetch.New(cfg.Prefetcher)
		if err != nil {
			return err
		}
		if cfg.DSPatch {
			// DSPatch samples ONE controller's utilization — deliberately
			// myopic, as the paper stresses.
			pf = dspatch.New(pf, func() float64 { return s.dram.ChannelUtilization(0) })
		}
		s.pf[i] = pf

		if s.clip != nil {
			ccfg := cfg.clipConfig()
			ccfg.CriticalityLevel = effLevel(s.attachL2)
			cl, err := core.New(ccfg)
			if err != nil {
				return err
			}
			s.clip[i] = cl
		}
		if s.critPred != nil {
			p, err := criticality.New(cfg.CritPredictor, cfg.CPU.ROBSize)
			if err != nil {
				return err
			}
			s.critPred[i] = p
		}
		if s.scored != nil {
			for _, name := range criticality.Names() {
				p, err := criticality.New(name, cfg.CPU.ROBSize)
				if err != nil {
					return err
				}
				s.scored[i] = append(s.scored[i], scoredPredictor{pred: p})
			}
		}
		if s.throttler != nil {
			if th, ok := pf.(prefetch.Throttleable); ok {
				t, err := throttle.New(cfg.Throttler, th)
				if err != nil {
					return err
				}
				s.throttler[i] = t
			}
		}
		if s.hermes != nil {
			s.hermes[i] = hermes.New()
		}

		attach := s.l1d[i]
		if s.attachL2 {
			attach = s.l2[i]
		}
		attach.OnAccess(func(ev *cache.AccessEvent) { s.onAccess(i, attach, ev) })
		if sink, ok := basePrefetcher(pf).(prefetch.FeedbackSink); ok {
			attach.OnPFEvict(func(trigger uint64, addr mem.Addr) {
				sink.Feedback(prefetch.Candidate{Addr: addr, TriggerIP: trigger}, false)
			})
		}

		// Register the event listeners only when a mechanism consumes them:
		// the core skips building events with no listeners, which keeps the
		// plain-prefetcher hot path free of per-load/per-retire event work.
		_, berti := basePrefetcher(pf).(*prefetch.Berti)
		if s.clip != nil || s.critPred != nil || s.scored != nil || s.hermes != nil || berti {
			s.cores[i].OnLoadComplete(func(ev *cpu.LoadEvent) { s.onLoadComplete(i, ev) })
		}
		if s.critPred != nil || s.scored != nil {
			s.cores[i].OnRetire(func(ev *cpu.RetireEvent) { s.onRetire(i, ev) })
		}
	}
	return nil
}

// basePrefetcher unwraps DSPatch to reach the underlying prefetcher (for
// feedback sinks and Berti's latency observation).
func basePrefetcher(p prefetch.Prefetcher) prefetch.Prefetcher {
	if d, ok := p.(*dspatch.DSPatch); ok {
		return d.Base()
	}
	return p
}

// onAccess handles a demand access at the prefetcher attach level: CLIP
// observation, PPF feedback, prefetcher training and candidate filtering.
func (s *System) onAccess(i int, attach *cache.Cache, ev *cache.AccessEvent) {
	if s.clip != nil {
		s.clip[i].OnAccess(ev.Req.Addr, ev.Hit, ev.Cycle)
	}
	if ev.Hit && ev.HitPrefetchedLine {
		if sink, ok := basePrefetcher(s.pf[i]).(prefetch.FeedbackSink); ok {
			sink.Feedback(prefetch.Candidate{Addr: ev.Req.Addr,
				TriggerIP: ev.TriggerIP}, true)
		}
	}
	if ev.Req.Type != mem.Load {
		return // prefetchers train on the load stream
	}
	cands := s.pf[i].Train(prefetch.Access{
		IP: ev.Req.IP, Addr: ev.Req.Addr, Hit: ev.Hit, Cycle: ev.Cycle,
	})
	if len(cands) == 0 {
		return
	}
	s.pfGenerated[i] += uint64(len(cands))

	if s.clip != nil {
		s.clip[i].SetHistories(s.cores[i].BranchHist, s.cores[i].CritHist)
	}
	// Dynamic CLIP (§5.3): with ample bandwidth the filter stands down and
	// the prefetcher runs free; training continues via OnLoadComplete.
	clipEngaged := s.clip != nil
	if clipEngaged && s.dynClip != nil && !s.dynClip.active {
		clipEngaged = false
	}
	for _, c := range cands {
		critFlag := false
		if s.critPred != nil {
			// Figure 5 mode: a prior predictor gates prefetches by trigger
			// IP (its only vocabulary).
			if !s.critPred[i].Critical(c.TriggerIP, c.Addr) {
				continue
			}
		}
		if clipEngaged {
			ok, crit := s.clip[i].Allow(c)
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
				Addr: c.Addr.Line(), IP: c.TriggerIP, TriggerIP: c.TriggerIP,
				Core: i, Type: mem.Prefetch, FillLevel: fill,
				Critical: critFlag, IssueCycle: ev.Cycle, ROBIndex: -1,
			},
			toL2: fill >= mem.LevelL2,
		})
	}
}

// onLoadComplete trains every attached mechanism with a finished load.
func (s *System) onLoadComplete(i int, ev *cpu.LoadEvent) {
	if s.clip != nil {
		s.clip[i].OnLoadComplete(ev)
	}
	if s.critPred != nil {
		s.critPred[i].OnLoadComplete(ev)
	}
	if s.scored != nil {
		actual := criticality.IsCriticalEvent(ev)
		for j := range s.scored[i] {
			sp := &s.scored[i][j]
			sp.score.Update(sp.pred.Critical(ev.IP, ev.Addr), actual)
			sp.pred.OnLoadComplete(ev)
		}
	}
	if s.hermes != nil && ev.ServedBy >= mem.LevelL2 {
		h := s.hermes[i]
		h.Train(ev.IP, ev.Addr, ev.ServedBy, h.PredictOffChip(ev.IP, ev.Addr))
	}
	if b, ok := basePrefetcher(s.pf[i]).(*prefetch.Berti); ok && ev.ServedBy >= mem.LevelL2 {
		b.ObserveMissLatency(ev.Latency)
	}
}

// onRetire feeds retire-stream predictors.
func (s *System) onRetire(i int, ev *cpu.RetireEvent) {
	if s.critPred != nil {
		s.critPred[i].OnRetire(ev)
	}
	if s.scored != nil {
		for j := range s.scored[i] {
			s.scored[i][j].pred.OnRetire(ev)
		}
	}
}
