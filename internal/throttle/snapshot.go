package throttle

import (
	"fmt"

	"clip/internal/snapshot"
)

// Throttler checkpointing. FDP and HPAC are pure rule tables over the bound
// prefetcher's level (itself serialized with the prefetcher); SPAC carries
// its hill-climbing state and NST its streak counter.

const (
	thrKindFDP uint8 = iota
	thrKindHPAC
	thrKindSPAC
	thrKindNST
)

func kindOf(t Throttler) (uint8, bool) {
	switch t.(type) {
	case *fdp:
		return thrKindFDP, true
	case *hpac:
		return thrKindHPAC, true
	case *spac:
		return thrKindSPAC, true
	case *nst:
		return thrKindNST, true
	}
	return 0, false
}

// State walks any throttler built by New, behind a kind byte so an image
// restores only into a receiver of the same kind.
func State(s *snapshot.Coder, t Throttler) {
	kind, ok := kindOf(t)
	if !ok {
		s.Fail(fmt.Errorf("throttle: cannot snapshot throttler type %T", t))
		return
	}
	if !s.Kind("throttle: throttler", kind) {
		return
	}
	switch th := t.(type) {
	case *fdp, *hpac:
		// Stateless beyond the target's aggressiveness level.
	case *spac:
		s.F64(&th.lastUtil)
		s.Int(&th.lastLevel)
		s.Int(&th.dir)
	case *nst:
		s.Int(&th.good)
	}
}
