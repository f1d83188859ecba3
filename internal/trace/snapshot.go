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
// window that grows lazily (one sharedChunk per refill), so a restored
// position cannot simply be assigned — the window in the restoring process
// may be shorter, and refill only guarantees progress one chunk at a time.
// Restore instead replays the stream by discarding Next() results up to the
// saved position (at most sharedWindow calls), which grows the shared
// window through the same code path a live run uses. If a private
// continuation generator was active, one extra Next() forces its creation
// and the saved continuation state then overwrites the clone's cursors.

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
// stream — a private receiver seeks by discarding, exactly like a Replay.
func State(s *snapshot.Coder, gn Generator) {
	if !s.Loading() {
		switch g := gn.(type) {
		case *gen:
			kind := genKindPrivate
			s.U8(&kind)
			g.state(s)
		case *Replay:
			kind, cont := genKindReplay, g.cont != nil
			s.U8(&kind)
			s.Int(&g.pos)
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
		if pos < 0 || pos > sharedWindow {
			s.Corrupt("trace: snapshot replay position %d out of range", pos)
			return
		}
		switch g := gn.(type) {
		case *Replay:
			seekReplay(s, g, pos, contActive)
		case *gen:
			// The saved view was a shared-window index; replay the same
			// number of instructions on the private generator, then apply
			// the continuation state if one was active.
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

// seekReplay advances a fresh Replay to pos by consuming the stream (which
// extends the process-wide shared window through the normal refill path),
// then forces and overwrites the continuation generator when one was
// active at save time.
func seekReplay(s *snapshot.Coder, g *Replay, pos int, contActive bool) {
	for i := 0; i < pos; i++ {
		g.Next()
	}
	if !contActive {
		return
	}
	if g.cont == nil {
		// One discarded instruction forces continuation creation; the
		// clone's cursors are then overwritten wholesale by the saved
		// state, erasing the discard.
		g.Next()
	}
	g.cont.state(s)
}
