// Package prefetch implements the data prefetchers the paper evaluates:
// Berti (MICRO'22), IPCP (ISCA'20), Bingo (HPCA'19) and SPP-PPF (MICRO'16 +
// ISCA'19), plus the classic IP-stride and streamer baselines that prefetch
// throttlers were originally designed for.
//
// All prefetchers train on the demand access stream of the cache level they
// are attached to (Berti/IPCP at L1D, Bingo/SPP-PPF at L2 in the paper) and
// return candidate prefetch addresses from Train.
package prefetch

import (
	"fmt"

	"clip/internal/mem"
)

// Access is one demand access observed at the attach level.
type Access struct {
	IP    uint64
	Addr  mem.Addr
	Hit   bool
	Cycle uint64
}

// Candidate is a prefetch the prefetcher wants issued.
type Candidate struct {
	Addr       mem.Addr
	TriggerIP  uint64
	FillLevel  mem.Level
	Confidence float64
}

// Prefetcher is the common interface.
type Prefetcher interface {
	Name() string
	// Train observes one demand access and returns zero or more candidates.
	// The returned slice is only valid until the next Train call —
	// implementations may reuse its backing array as scratch space; callers
	// must consume (or copy) the candidates before training again.
	Train(a Access) []Candidate
}

// FeedbackSink is implemented by prefetchers that learn from usefulness
// feedback (PPF's perceptron filter).
type FeedbackSink interface {
	Feedback(c Candidate, useful bool)
}

// Throttleable is implemented by prefetchers whose aggressiveness the
// throttlers (FDP/HPAC/SPAC/NST) can adjust. Level ranges 1 (conservative)
// to 5 (aggressive); 3 is the default.
type Throttleable interface {
	SetAggressiveness(level int)
	Aggressiveness() int
}

// aggr is the shared aggressiveness knob.
type aggr struct{ level int }

func (a *aggr) SetAggressiveness(level int) {
	a.level = min(max(level, 1), maxAggressiveness)
}

func (a *aggr) Aggressiveness() int {
	if a.level == 0 {
		return 3
	}
	return a.level
}

// maxAggressiveness is the highest aggressiveness level, and maxBoost the
// most it adds to a base degree (degreeFor): an engine's Train returns at
// most its base degree plus maxBoost candidates, so it sizes its output
// array by that.
const (
	maxAggressiveness = 5
	maxBoost          = maxAggressiveness - 3
)

// MaxCandidates is the most candidates any engine's Train returns: SPP-PPF's
// deepest walk and Bingo's degree at the highest aggressiveness. A wrapper
// that adds to an engine's candidates sizes its own output by it.
const MaxCandidates = sppMaxDepth

// degreeFor maps aggressiveness to a prefetch degree given a base degree.
func degreeFor(base, level int) int {
	d := base + (level - 3)
	if d < 1 {
		d = 1
	}
	return d
}

// New constructs a prefetcher by name: "berti", "ipcp", "bingo", "spppf",
// "stride", "stream", or "none" (nil-object that never prefetches). It is
// the one-member case of NewArray.
func New(name string) (Prefetcher, error) {
	ps, err := NewArray(nil, name, 1)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// NewArray constructs n prefetchers of the named kind, one per core. The
// engines are one array and their tables are carved from one slab per
// column type, so a kind costs a fixed handful of allocations whatever n is.
// The slabs come from a (mem.Make).
func NewArray(a *mem.Arena, name string, n int) ([]Prefetcher, error) {
	ps := mem.Make[Prefetcher](a, n)
	switch name {
	case "berti":
		fill(ps, newBertis(a, n))
	case "ipcp":
		fill(ps, newIPCPs(a, n))
	case "bingo":
		fill(ps, newBingos(a, n))
	case "spppf":
		fill(ps, newSPPPPFs(a, n))
	case "stride":
		fill(ps, newStrides(a, n))
	case "stream":
		fill(ps, mem.Make[Stream](a, n))
	case "none", "":
		for i := range ps {
			ps[i] = None{}
		}
	default:
		return nil, fmt.Errorf("prefetch: unknown prefetcher %q", name)
	}
	return ps, nil
}

// fill points ps[i] at engines[i].
func fill[E any, P interface {
	*E
	Prefetcher
}](ps []Prefetcher, engines []E) {
	for i := range engines {
		ps[i] = P(&engines[i])
	}
}

// Names lists the available prefetcher names.
func Names() []string {
	return []string{"berti", "ipcp", "bingo", "spppf", "stride", "stream", "none"}
}

// None never prefetches.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// Train implements Prefetcher.
func (None) Train(Access) []Candidate { return nil }
