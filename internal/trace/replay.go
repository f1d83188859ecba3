package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file keeps the pre-decoded form of a stream: Shared decodes a
// workload's instructions once into a flat []Instr window that every Replay
// of the same Config reads in place. No simulation reads it — a core fills
// its own small batches from a Cursor (cpu.Core.refillIbuf) — and it stays
// only as what bench's trace.window_ns_per_instr and trace.shared_build_ms
// kernels time.
//
// Sharing is safe because generators are deterministic in their Config: two
// readers of the same (name, seed, offset, ...) see byte-identical streams
// whether they decode privately or read the shared window.

// Windower is an optional Generator fast path: Window returns a read-only
// view of the next pre-decoded instructions *in place* (no copy), advancing
// the stream past them. An empty return means the zero-copy window is
// exhausted for good and the caller must fall back to Next, which continues
// the stream seamlessly. Callers must not mutate the returned slice: its
// backing array is shared between every simulation replaying the same
// workload.
type Windower interface {
	Window() []Instr
}

const (
	// sharedWindow bounds the pre-decoded prefix per stream (16k Instr,
	// ~512KB). Runs that consume more fall back to a private generator
	// clone positioned at the window edge — correctness never depends on
	// the window size, only how much of the stream is served in place.
	sharedWindow = 16384
	// sharedChunk is the growth step: windows extend on demand so short
	// runs do not pay for the full window.
	sharedChunk = 4096
	// maxStreams bounds the cache; once full, new configs decode privately.
	maxStreams = 256
)

// stream is one shared pre-decoded prefix. pub holds the published prefix;
// its backing array is append-only and the atomic store/load pair orders the
// element writes before any reader indexes them, so readers are lock-free.
type stream struct {
	mu  sync.Mutex
	g   *Cursor // positioned exactly at len(*pub.Load())
	pub atomic.Pointer[[]Instr]
}

var (
	sharedMu      sync.Mutex
	sharedStreams = map[string]*stream{}
)

// Shared returns a Generator for cfg backed by the process-wide pre-decoded
// stream cache. The returned stream is byte-identical to New(cfg)'s.
func Shared(cfg Config) (Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Config fully determines the stream, so its printed form is the key.
	key := fmt.Sprintf("%#v", cfg)
	sharedMu.Lock()
	st, ok := sharedStreams[key]
	if !ok {
		if len(sharedStreams) >= maxStreams {
			sharedMu.Unlock()
			return New(cfg)
		}
		g, err := New(cfg)
		if err != nil {
			sharedMu.Unlock()
			return nil, err
		}
		st = &stream{g: g}
		sharedStreams[key] = st
	}
	sharedMu.Unlock()
	return &Replay{name: cfg.Name, st: st}, nil
}

// Replay reads one simulation's view of a shared stream: an index into the
// published window, then a private continuation generator past its edge.
type Replay struct {
	name string
	prog []Instr // snapshot of the published window
	pos  int
	st   *stream
	cont *Cursor // continuation past the shared window; nil until needed
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Next implements Generator.
func (r *Replay) Next() Instr {
	if r.pos < len(r.prog) {
		ins := r.prog[r.pos]
		r.pos++
		return ins
	}
	if r.refill() {
		ins := r.prog[r.pos]
		r.pos++
		return ins
	}
	return r.cont.Next()
}

// Window implements Windower: it hands out the not-yet-consumed tail of the
// published window without copying, growing the shared window if needed, and
// returns nil once the window is exhausted (the continuation generator then
// serves Next).
func (r *Replay) Window() []Instr {
	if r.pos >= len(r.prog) && !r.refill() {
		return nil
	}
	w := r.prog[r.pos:]
	r.pos = len(r.prog)
	return w
}

// refill advances r.prog past r.pos, growing the shared window if needed.
// It returns false once the window is exhausted, with r.cont set to a
// private generator positioned at the window edge.
func (r *Replay) refill() bool {
	if r.cont != nil {
		return false
	}
	if p := r.st.pub.Load(); p != nil && r.pos < len(*p) {
		r.prog = *p
		return true
	}
	st := r.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if p := st.pub.Load(); p != nil && r.pos < len(*p) {
		r.prog = *p
		return true
	}
	if r.pos >= sharedWindow {
		// st.g generated exactly sharedWindow instructions; a clone of it
		// continues the stream privately from here.
		r.cont = st.g.clone()
		return false
	}
	var cur []Instr
	if p := st.pub.Load(); p != nil {
		cur = *p
	} else {
		cur = make([]Instr, 0, sharedChunk)
	}
	target := len(cur) + sharedChunk
	if target > sharedWindow {
		target = sharedWindow
	}
	for len(cur) < target {
		cur = append(cur, st.g.Next())
	}
	st.pub.Store(&cur)
	r.prog = cur
	return true
}

// clone copies the cursor so a continuation advances independently of the
// shared stream position; the program stays shared.
func (c *Cursor) clone() *Cursor {
	cp := *c
	return &cp
}
