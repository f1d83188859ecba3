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

// saveState writes the mutable generator state.
func (g *gen) saveState(w *snapshot.Writer) {
	g.rng.Save(w)
	w.Int(g.pc)
	w.U64(g.emit)
	w.Bool(g.inAltPhase)
	w.Int(len(g.sites))
	for i := range g.sites {
		st := &g.sites[i]
		w.U64(st.cursor)
		w.Int(st.deltaIdx)
		w.U64(st.chaseAt)
		w.Bool(st.takenState)
		w.Int(st.wordRep)
		w.Int(st.rowLeft)
	}
}

// loadState restores the mutable generator state into a generator built
// from the same Config.
func (g *gen) loadState(r *snapshot.Reader) {
	g.rng.Load(r)
	g.pc = r.Int()
	g.emit = r.U64()
	g.inAltPhase = r.Bool()
	if n := r.Int(); r.Err() == nil && n != len(g.sites) {
		r.Fail(fmt.Errorf("trace: snapshot has %d sites, generator has %d: %w",
			n, len(g.sites), snapshot.ErrCorrupt))
	}
	if r.Err() != nil {
		return
	}
	for i := range g.sites {
		st := &g.sites[i]
		st.cursor = r.U64()
		st.deltaIdx = r.Int()
		st.chaseAt = r.U64()
		st.takenState = r.Bool()
		st.wordRep = r.Int()
		st.rowLeft = r.Int()
	}
	if r.Err() == nil && (g.pc < 0 || g.pc >= len(g.prog)) {
		r.Fail(fmt.Errorf("trace: snapshot pc %d out of program [0,%d): %w",
			g.pc, len(g.prog), snapshot.ErrCorrupt))
	}
}

const (
	genKindPrivate = 0 // a bare *gen (shared-stream cache was full)
	genKindReplay  = 1 // a Replay view of the shared window
)

// SaveGenerator serializes the stream position of a Generator created by
// New or Shared. Unknown Generator implementations fail the Writer.
func SaveGenerator(w *snapshot.Writer, gn Generator) {
	// The kind byte goes out once, ahead of the per-kind body — the shape in
	// which LoadGenerator reads it back (the snapsym mirror contract).
	var kind uint8
	switch gn.(type) {
	case *gen:
		kind = genKindPrivate
	case *Replay:
		kind = genKindReplay
	default:
		w.Fail(fmt.Errorf("trace: cannot snapshot generator type %T", gn))
		return
	}
	w.U8(kind)
	switch g := gn.(type) {
	case *gen:
		g.saveState(w)
	case *Replay:
		w.Int(g.pos)
		w.Bool(g.cont != nil)
		if g.cont != nil {
			g.cont.saveState(w)
		}
	}
}

// LoadGenerator restores a position saved by SaveGenerator into a freshly
// constructed Generator of the same Config. The receiver kind may differ
// from the saved kind (the shared-stream cache fills process-locally), as
// long as both produce the identical stream — a private receiver seeks by
// discarding, exactly like a Replay.
func LoadGenerator(r *snapshot.Reader, gn Generator) {
	kind := r.U8()
	if r.Err() != nil {
		return
	}
	switch kind {
	case genKindPrivate:
		switch g := gn.(type) {
		case *gen:
			g.loadState(r)
		case *Replay:
			// A private position is an absolute stream state; seek the
			// replay past its shared window and overwrite the continuation.
			seekReplay(r, g, sharedWindow, true)
		default:
			r.Fail(fmt.Errorf("trace: cannot restore into generator type %T", gn))
		}
	case genKindReplay:
		pos := r.Int()
		contActive := r.Bool()
		if r.Err() != nil {
			return
		}
		if pos < 0 || pos > sharedWindow {
			r.Fail(fmt.Errorf("trace: snapshot replay position %d out of range: %w",
				pos, snapshot.ErrCorrupt))
			return
		}
		switch g := gn.(type) {
		case *Replay:
			seekReplay(r, g, pos, contActive)
		case *gen:
			// The saved view was a shared-window index; replay the same
			// number of instructions on the private generator, then apply
			// the continuation state if one was active.
			for i := 0; i < pos; i++ {
				g.Next()
			}
			if contActive {
				g.loadState(r)
			}
		default:
			r.Fail(fmt.Errorf("trace: cannot restore into generator type %T", gn))
		}
	default:
		r.Fail(fmt.Errorf("trace: unknown generator kind %d: %w", kind, snapshot.ErrCorrupt))
	}
}

// seekReplay advances a fresh Replay to pos by consuming the stream (which
// extends the process-wide shared window through the normal refill path),
// then forces and overwrites the continuation generator when one was
// active at save time.
func seekReplay(r *snapshot.Reader, g *Replay, pos int, contActive bool) {
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
	g.cont.loadState(r)
}
