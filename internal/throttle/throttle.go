// Package throttle implements the prefetcher aggressiveness controllers the
// paper evaluates against (Figure 6): FDP, HPAC, SPAC and NST. All four are
// epoch-based and coarse-grained — they adjust a single per-core
// aggressiveness knob from epoch-aggregate metrics (accuracy, lateness,
// pollution, bandwidth), which is precisely why the paper finds them
// ineffective under state-of-the-art prefetchers: they cannot tell apart the
// individual loads inside an epoch.
package throttle

import (
	"fmt"

	"clip/internal/mem"
	"clip/internal/prefetch"
)

// Metrics is one epoch's aggregate measurement, gathered by the simulator.
type Metrics struct {
	Accuracy      float64 // useful prefetches / issued
	Lateness      float64 // late prefetches / useful
	Pollution     float64 // polluted demand misses / demand misses
	BandwidthUtil float64 // DRAM data-bus utilization [0,1]
	CoreIPC       float64 // this core's epoch IPC
	OtherCoreSlow float64 // estimated slowdown inflicted on other cores [0,1]
}

// Throttler adjusts a prefetcher's aggressiveness each epoch.
type Throttler interface {
	Name() string
	// Adjust applies the epoch metrics and returns the new level (1..5).
	Adjust(m Metrics) int
}

// New constructs a throttler by name ("fdp", "hpac", "spac", "nst") bound to
// the target prefetcher: the one-member case of NewArray.
func New(name string, target prefetch.Throttleable) (Throttler, error) {
	ts, err := NewArray(nil, name, []prefetch.Throttleable{target})
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// NewArray constructs one throttler of the named kind per target, throttler
// i bound to targets[i]; the throttlers are one array, taken from a
// (mem.Make).
func NewArray(a *mem.Arena, name string, targets []prefetch.Throttleable) ([]Throttler, error) {
	ts := mem.Make[Throttler](a, len(targets))
	switch name {
	case "fdp":
		fs := mem.Make[fdp](a, len(targets))
		for i := range fs {
			fs[i].target, ts[i] = targets[i], &fs[i]
		}
	case "hpac":
		hs := mem.Make[hpac](a, len(targets))
		for i := range hs {
			hs[i].fdp.target, ts[i] = targets[i], &hs[i]
		}
	case "spac":
		ss := mem.Make[spac](a, len(targets))
		for i := range ss {
			ss[i].target, ts[i] = targets[i], &ss[i]
		}
	case "nst":
		ns := mem.Make[nst](a, len(targets))
		for i := range ns {
			ns[i].target, ts[i] = targets[i], &ns[i]
		}
	default:
		return nil, fmt.Errorf("throttle: unknown throttler %q", name)
	}
	return ts, nil
}

// Names lists the available throttlers in the paper's order.
func Names() []string { return []string{"fdp", "hpac", "spac", "nst"} }

// fdp is Feedback Directed Prefetching (Srinath et al., HPCA'07): a rule
// table over (accuracy, lateness, pollution) classes moves the aggressiveness
// counter up or down.
type fdp struct {
	target prefetch.Throttleable
}

func (f *fdp) Name() string { return "fdp" }

func (f *fdp) Adjust(m Metrics) int {
	accHigh := m.Accuracy >= 0.75
	accMid := m.Accuracy >= 0.40
	late := m.Lateness >= 0.25
	poll := m.Pollution >= 0.05

	level := f.target.Aggressiveness()
	switch {
	case accHigh && late:
		level++ // accurate but late: run further ahead
	case accHigh && !late && !poll:
		// keep
	case accMid && poll:
		level--
	case !accMid:
		level-- // inaccurate: throttle down
	}
	f.target.SetAggressiveness(level)
	return f.target.Aggressiveness()
}

// hpac is the Hierarchical Prefetcher Aggressiveness Controller (Ebrahimi et
// al., MICRO'09): per-core FDP plus a global override that throttles cores
// inflicting interference when shared bandwidth saturates.
type hpac struct {
	fdp fdp
}

func (h *hpac) Name() string { return "hpac" }

func (h *hpac) Adjust(m Metrics) int {
	// Global component first: severe interference forces throttle-down
	// regardless of local feedback.
	if m.BandwidthUtil >= 0.85 && (m.Accuracy < 0.6 || m.OtherCoreSlow > 0.15) {
		h.fdp.target.SetAggressiveness(h.fdp.target.Aggressiveness() - 2)
		return h.fdp.target.Aggressiveness()
	}
	return h.fdp.Adjust(m)
}

// spac is the Synergistic Prefetcher Aggressiveness Controller (Panda,
// TC'16): it searches for the aggressiveness that maximizes estimated system
// fair-speedup, using a hill-climbing step per epoch on a utility proxy.
type spac struct {
	target    prefetch.Throttleable
	lastUtil  float64
	lastLevel int
	dir       int
}

func (s *spac) Name() string { return "spac" }

func (s *spac) Adjust(m Metrics) int {
	// Utility proxy: own progress minus inflicted slowdown.
	util := m.CoreIPC * (1 - m.OtherCoreSlow)
	if s.dir == 0 {
		s.dir = 1
		s.lastLevel = s.target.Aggressiveness()
		s.lastUtil = util
		s.target.SetAggressiveness(s.lastLevel + s.dir)
		return s.target.Aggressiveness()
	}
	if util < s.lastUtil {
		s.dir = -s.dir // move made things worse: reverse
	}
	s.lastUtil = util
	s.lastLevel = s.target.Aggressiveness()
	s.target.SetAggressiveness(s.lastLevel + s.dir)
	return s.target.Aggressiveness()
}

// nst is Near-Side prefetch Throttling (Heirman et al., PACT'18): it keys on
// timeliness at the near side (L1 fills) and drops aggressiveness whenever
// late fills dominate, growing it back slowly when prefetches are timely.
type nst struct {
	target prefetch.Throttleable
	good   int
}

func (n *nst) Name() string { return "nst" }

func (n *nst) Adjust(m Metrics) int {
	if m.Lateness >= 0.30 {
		n.good = 0
		n.target.SetAggressiveness(n.target.Aggressiveness() - 1)
	} else if m.Accuracy >= 0.5 {
		n.good++
		if n.good >= 3 { // grow back slowly
			n.good = 0
			n.target.SetAggressiveness(n.target.Aggressiveness() + 1)
		}
	}
	return n.target.Aggressiveness()
}
