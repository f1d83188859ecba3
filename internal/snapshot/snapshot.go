// Package snapshot is the versioned binary codec behind deterministic
// checkpoint/restore of simulator state (DESIGN.md §12).
//
// The format is deliberately simple: a magic+version header, then a flat
// little-endian stream. Scalars and the bool and int32 columns are
// fixed-width; a []uint64 column, the bulk of an image, is packed — a
// bitmap of its nonzero elements, then those values at the width of the
// widest — and so is a byte column, whose values are single bytes. A packed
// column has exactly one accepted encoding, so an image re-saves to the
// same bytes.
//
// The codec has one type, Coder, which either saves or loads. Each
// component has one State(*Coder) walk over its fields (coder.go) in which
// every method takes a pointer and encodes what it points at or decodes
// into it, so the two directions share one field order by construction;
// the equivalence matrix in internal/sim checks the semantics.
//
// Sections give the stream a skippable, length-prefixed coarse structure:
// a loader that does not understand (or does not want) a section can skip
// it wholesale, which is how optional mechanism state (CLIP, Hermes,
// throttlers) stays forward-compatible with configs that lack it.
//
// Errors are sticky in both directions: the first failure latches and
// every subsequent call is a cheap no-op, so State bodies stay free of
// error plumbing and the caller checks once at the end. Loading never
// panics on truncated or corrupt input — it latches ErrCorrupt and leaves
// zero in scalar receivers — which the fuzz tests pin down.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Magic identifies a snapshot stream ("CLPS" | version byte appended).
const Magic = 0x43_4C_50_53 // "CLPS"

// Version is the current format version. Bump on any layout change; old
// versions are rejected by NewLoader (checkpoints are cheap to regenerate,
// so there is no migration machinery).
const Version = 11

// ErrCorrupt is latched by a loading Coder on truncated or malformed input.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated stream")

// MaxLen bounds every decoded element count, and is the cap a list passes to
// Coder.Len when no configuration bounds its length. What actually limits
// such a list is the stream: a count whose elements could not fit in the
// bytes that remain is refused, so a corrupt length prefix cannot drive a
// giant allocation before the per-element reads fail.
const MaxLen = 1 << 28

// Coder walks state in one direction. A saving Coder encodes every value it
// is shown onto the end of its buffer; a loading one decodes into the same
// values from its read offset. A component therefore has one State(*Coder)
// function that visits its fields in stream order, and saving and loading
// cannot disagree about that order.
//
// Within a State body the convention is: a field that is visited is saved; a
// field that is not visited is rebuilt from configuration by the
// constructor; a memo derived from saved state is settled in an
// `if !s.Loading()` head before the walk and dropped or rebuilt, with the
// restored cursors validated, in an `if s.Loading()` tail after it.
//
// Errors latch in the Coder, so a body needs no error plumbing beyond
// stopping where a decoded value would be used as an index.
type Coder struct {
	buf     []byte
	off     int // loading: the offset of the next byte to decode
	loading bool
	err     error
	spare   [8]byte  // the scalar window once an error has latched (word)
	bitmap  []byte   // saving: the bitmap of the column U64s is packing
	words   []uint64 // the scratch Words hands out
}

// NewSaver returns a saving Coder with the magic+version header already
// emitted. capacity is the buffer's initial size: a caller that knows
// roughly how long its stream will be saves the copies of growing there
// (the buffer still grows past a low estimate).
func NewSaver(capacity int) *Coder {
	s := &Coder{buf: make([]byte, 0, max(capacity, 8))}
	magic, version := uint32(Magic), uint32(Version)
	s.U32(&magic)
	s.U32(&version)
	return s
}

// NewLoader returns a Coder that loads from buf, checking the magic+version
// header.
func NewLoader(buf []byte) (*Coder, error) {
	s := &Coder{buf: buf, loading: true}
	var magic, version uint32
	if s.U32(&magic); magic != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %#x: %w", magic, ErrCorrupt)
	}
	if s.U32(&version); version != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", version, Version)
	}
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// Loading reports whether the walk decodes (true) or encodes (false).
func (s *Coder) Loading() bool { return s.loading }

// Bytes returns a saving Coder's stream and the first latched error, if any.
func (s *Coder) Bytes() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.buf, nil
}

// Done reports whether a loading Coder consumed its whole stream without
// error.
func (s *Coder) Done() error {
	if s.err != nil {
		return s.err
	}
	if s.off != len(s.buf) {
		return fmt.Errorf("snapshot: %d trailing bytes: %w", len(s.buf)-s.off, ErrCorrupt)
	}
	return nil
}

// Err returns the latched error.
func (s *Coder) Err() error { return s.err }

// Words returns n words of scratch the Coder owns, for a State body that
// walks a table of small entries as one packed word per entry: saving packs
// each entry into its word and passes the words to U64s; loading passes
// them to U64s and unpacks each. The words are valid until the next call.
func (s *Coder) Words(n int) []uint64 {
	s.words = slices.Grow(s.words[:0], n)[:n]
	return s.words
}

// Fail latches err (used by components that discover unserializable state,
// e.g. a live NoC packet carrying a closure).
func (s *Coder) Fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Corrupt latches ErrCorrupt with a formatted description of what a loaded
// value violated.
func (s *Coder) Corrupt(format string, args ...any) {
	s.Fail(fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt))
}

// corrupt latches ErrCorrupt with the offset the stream went wrong at.
func (s *Coder) corrupt(what string) {
	s.Fail(fmt.Errorf("snapshot: reading %s at offset %d: %w", what, s.off, ErrCorrupt))
}

// window returns the next n bytes of the stream: saving appends them, for
// the caller to fill, growing the buffer at most once; loading consumes
// them. It is nil once an error has latched, and loading latches ErrCorrupt
// when the stream is shorter.
func (s *Coder) window(what string, n int) []byte {
	switch {
	case s.err != nil:
		return nil
	case !s.loading:
		at := len(s.buf)
		s.buf = slices.Grow(s.buf, n)[:at+n]
		return s.buf[at:]
	case n < 0 || n > len(s.buf)-s.off:
		s.corrupt(what)
		return nil
	}
	s.off += n
	return s.buf[s.off-n : s.off]
}

// word is window for one scalar of n <= 8 bytes, never nil: once an error
// has latched it is the spare word, which loading never writes, so a failed
// load decodes zero into its receiver and a failed save writes nowhere.
func (s *Coder) word(what string, n int) []byte {
	if b := s.window(what, n); b != nil {
		return b
	}
	return s.spare[:n]
}

// count walks an element count: saving writes n and returns it; loading
// returns the decoded count, or 0 with ErrCorrupt latched when it is
// negative, above MaxLen or more than the rest of the stream could hold at
// elemSize encoded bytes an element.
func (s *Coder) count(what string, n, elemSize int) int {
	if s.Int(&n); s.loading && (n < 0 || n > MaxLen || n*elemSize > len(s.buf)-s.off) {
		s.corrupt(what)
		return 0
	}
	return n
}

// column walks the count of a column of n elements, size bytes each, and
// returns the window they encode into or decode from; nil once an error has
// latched. Columns are geometry-fixed, so loading requires the count to be
// n: another count means the stream belongs to a different configuration.
func (s *Coder) column(what string, n, size int) []byte {
	if got := s.count(what, n, size); s.err == nil && got != n {
		s.corrupt(what + " length")
	}
	return s.window(what, n*size)
}

// Section brackets fn's walk with a tag and a length prefix. Saving patches
// the length in after fn runs; loading checks the tag, so a loader knows it
// is aligned on the same section, and that fn consumed exactly the recorded
// length. A loader skips a section it does not consume with SkipSection.
func (s *Coder) Section(tag string, fn func()) {
	// The tag is a String; loading compares it in place, allocating nothing.
	switch b := s.window("string", s.count("string", len(tag), 1)); {
	case !s.loading:
		copy(b, tag)
	case s.err == nil && string(b) != tag:
		s.Fail(fmt.Errorf("snapshot: section %q, expected %q: %w", b, tag, ErrCorrupt))
	}
	at := len(s.buf)
	var n uint64 // saving: the placeholder the length is patched into
	if s.U64(&n); s.err != nil {
		return
	}
	if !s.loading {
		if fn(); s.err == nil {
			binary.LittleEndian.PutUint64(s.buf[at:], uint64(len(s.buf)-at-8))
		}
		return
	}
	if n > uint64(len(s.buf)-s.off) {
		s.corrupt("section length")
		return
	}
	end := s.off + int(n)
	if fn(); s.err == nil && s.off != end {
		s.Fail(fmt.Errorf("snapshot: section %q consumed %d of %d bytes: %w",
			tag, int(n)-(end-s.off), n, ErrCorrupt))
	}
}

// SkipSection makes a loading Coder skip one section wholesale, and returns
// its tag.
func (s *Coder) SkipSection() string {
	var tag string
	var n uint64
	s.String(&tag)
	if s.U64(&n); s.err == nil && n > uint64(len(s.buf)-s.off) {
		s.corrupt("section length")
	}
	if s.err == nil {
		s.off += int(n)
	}
	return tag
}
