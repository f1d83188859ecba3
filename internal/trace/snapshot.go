package trace

import (
	"fmt"

	"clip/internal/snapshot"
)

// Generator checkpointing. A generator's immutable shape (program, chase
// table, site specs) is a pure function of its Config and is rebuilt by
// construction; only the mutable stream position is captured: the RNG
// state, program counter, emitted count, phase flag and per-site cursors.
//
// Replay adds one wrinkle: its position indexes a process-wide shared
// window that grows lazily (one sharedChunk per refill), so the window in the
// restoring process may be shorter than the saved position. Restore publishes
// whole chunks through refill — the code path a live run grows the window by
// — until the window covers the position, then assigns it: O(pos/sharedChunk)
// and nothing is decoded twice. The saved position is the consumer's, not the
// view's: Window hands out everything published, which depends on what other
// simulations of the process have decoded, so State subtracts what the
// consumer still holds unread and the image is a function of the simulated
// state alone. If a private continuation generator was active the position
// is the window's edge, refill creates the continuation there and the saved
// continuation state overwrites the clone's cursors.

// state walks the mutable generator state of a generator built from the same
// Config.
func (g *gen) state(s *snapshot.Coder) {
	g.rng.State(s)
	s.Int(&g.pc)
	s.U64(&g.emit)
	s.Bool(&g.inAltPhase)
	if !s.Fixed("trace: sites", len(g.sites)) {
		return
	}
	for i := range g.sites {
		st := &g.sites[i]
		s.U64(&st.cursor)
		s.Int(&st.deltaIdx)
		s.U64(&st.chaseAt)
		s.Bool(&st.takenState)
		s.Int(&st.wordRep)
		s.Int(&st.rowLeft)
	}
	if s.Loading() && (g.pc < 0 || g.pc >= len(g.prog)) {
		s.Corrupt("trace: snapshot pc %d out of program [0,%d)", g.pc, len(g.prog))
	}
}

const (
	genKindPrivate uint8 = 0 // a bare *gen (shared-stream cache was full)
	genKindReplay  uint8 = 1 // a Replay view of the shared window
)

// State walks the stream position of a Generator created by New or Shared;
// other Generator implementations fail the walk. The two directions differ
// in kind, not only in direction: saving writes the position of what gn is,
// loading seeks a freshly constructed Generator of the same Config to a
// position that may have been saved from the other kind (the shared-stream
// cache fills process-locally), as long as both produce the identical
// stream.
//
// unread is how many instructions of its last Window the consumer has not
// consumed yet: saving writes the position that many back, so a restored
// consumer's next Window starts at its first unconsumed instruction. Only a
// Replay hands out windows; loading ignores it.
func State(s *snapshot.Coder, gn Generator, unread int) {
	if !s.Loading() {
		switch g := gn.(type) {
		case *gen:
			kind := genKindPrivate
			s.U8(&kind)
			g.state(s)
		case *Replay:
			kind, pos, cont := genKindReplay, g.pos-unread, g.cont != nil
			s.U8(&kind)
			s.Int(&pos)
			s.Bool(&cont)
			if cont {
				g.cont.state(s)
			}
		default:
			s.Fail(fmt.Errorf("trace: cannot snapshot generator type %T", gn))
		}
		return
	}
	var kind uint8
	s.U8(&kind)
	if s.Err() != nil {
		return
	}
	switch kind {
	case genKindPrivate:
		switch g := gn.(type) {
		case *gen:
			g.state(s)
		case *Replay:
			// A private position is an absolute stream state; seek the
			// replay past its shared window and overwrite the continuation.
			seekReplay(s, g, sharedWindow, true)
		default:
			s.Fail(fmt.Errorf("trace: cannot restore into generator type %T", gn))
		}
	case genKindReplay:
		var pos int
		var contActive bool
		s.Int(&pos)
		s.Bool(&contActive)
		if s.Err() != nil {
			return
		}
		if pos < 0 || pos > sharedWindow || (contActive && pos != sharedWindow) {
			s.Corrupt("trace: snapshot replay position %d (continuation %t) out of range", pos, contActive)
			return
		}
		switch g := gn.(type) {
		case *Replay:
			seekReplay(s, g, pos, contActive)
		case *gen:
			// The saved view was a shared-window index; a private generator
			// has no window to seek in, so it replays that many instructions,
			// then applies the continuation state if one was active.
			for i := 0; i < pos; i++ {
				g.Next()
			}
			if contActive {
				g.state(s)
			}
		default:
			s.Fail(fmt.Errorf("trace: cannot restore into generator type %T", gn))
		}
	default:
		s.Corrupt("trace: unknown generator kind %d", kind)
	}
}

// seekReplay positions a fresh Replay at pos <= sharedWindow: refill extends
// the process-wide shared window a chunk at a time (or adopts what another
// view already published) until it covers pos. With a continuation active
// pos is the window's edge, where one more refill creates the continuation
// for the saved state to overwrite.
func seekReplay(s *snapshot.Coder, g *Replay, pos int, contActive bool) {
	for len(g.prog) < pos {
		g.pos = len(g.prog)
		g.refill()
	}
	g.pos = pos
	if !contActive {
		return
	}
	g.refill()
	g.cont.state(s)
}
