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
// hierarchy.
func (s *System) attachMechanisms() error {
	n := s.cfg.Cores()
	cfg := &s.cfg

	s.mech = make([]coreMechs, n)
	s.pfGenerated = make([]uint64, n)
	s.pfIssued = make([]uint64, n)

	for i := range s.mech {
		m := &s.mech[i]
		engine, err := prefetch.New(cfg.Prefetcher)
		if err != nil {
			return err
		}
		m.pf = engine
		m.feedback, _ = engine.(prefetch.FeedbackSink)
		m.berti, _ = engine.(*prefetch.Berti)
		if cfg.DSPatch {
			// DSPatch samples ONE controller's utilization — deliberately
			// myopic, as the paper stresses.
			m.dspatch = dspatch.New(engine, func() float64 { return s.dram.ChannelUtilization(0) })
			m.pf = m.dspatch
		}

		if cfg.CLIP != nil {
			ccfg := cfg.clipConfig()
			ccfg.CriticalityLevel = effLevel(s.attachL2)
			cl, err := core.New(ccfg)
			if err != nil {
				return err
			}
			m.clip = cl
		}
		if cfg.CritPredictor != "" {
			p, err := criticality.New(cfg.CritPredictor, cfg.CPU.ROBSize)
			if err != nil {
				return err
			}
			m.crit = p
		}
		if cfg.ScorePredictors {
			for _, name := range criticality.Names() {
				p, err := criticality.New(name, cfg.CPU.ROBSize)
				if err != nil {
					return err
				}
				m.scored = append(m.scored, scoredPredictor{pred: p})
			}
		}
		if cfg.Throttler != "" {
			th, ok := m.pf.(prefetch.Throttleable)
			t, err := throttle.New(cfg.Throttler, th) // an unknown name errs first
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("sim: prefetcher %q (DSPatch %t) cannot take throttler %q", cfg.Prefetcher, cfg.DSPatch, cfg.Throttler)
			}
			m.throttler = t
		}
		if cfg.Hermes {
			m.hermes = hermes.New()
		}

		attach := s.l1d[i]
		if s.attachL2 {
			attach = s.l2[i]
		}
		attach.OnAccess(func(ev *cache.AccessEvent) { s.onAccess(i, ev) })
		if sink := m.feedback; sink != nil {
			attach.OnPFEvict(func(trigger uint64, addr mem.Addr) {
				sink.Feedback(prefetch.Candidate{Addr: addr, TriggerIP: trigger}, false)
			})
		}

		// Register the event listeners only when a mechanism consumes them:
		// the core skips building events with no listeners, which keeps the
		// plain-prefetcher hot path free of per-load/per-retire event work.
		if m.clip != nil || m.crit != nil || m.scored != nil || m.hermes != nil || m.berti != nil {
			s.cores[i].OnLoadComplete(m.onLoadComplete)
		}
		if m.crit != nil || m.scored != nil {
			s.cores[i].OnRetire(m.onRetire)
		}
	}
	return nil
}

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
				Addr: c.Addr.Line(), IP: c.TriggerIP, TriggerIP: c.TriggerIP,
				Core: i, Type: mem.Prefetch, FillLevel: fill,
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
